"""shiftlog: shifted-logarithm calculus for evolution operators.

The package builds two-parameter evolution operators U(t, s) from
time-dependent generators, regularizes their logarithm with a resolvent
shift, a(t, s) = Log(U(t, s) + kappa I), and verifies the product- and
conjugation-series identities that survive when the underlying generators
blow up under mesh refinement.
"""

from .errors import (
    BranchCutError,
    ConfigError,
    ContourError,
    ConvergenceRadiusError,
    NoConvergenceError,
    PropagationError,
    ShiftlogError,
    SingularMatrixError,
)
from .linalg import (
    gershgorin_discs,
    matrix_from_json,
    norm_1,
    off_branch_cut,
    solve,
)
from .matfun import (
    contour_for,
    expm,
    fd_derivative,
    fd_step,
    logm_contour,
    logm_iss,
    sqrtm_db,
)
from .evolution import (
    GeneratorSpec,
    check_growth_bound,
    check_semigroup,
    march,
    propagate,
)
from .logrep import (
    alt_generator,
    check_asymmetry,
    recover_generator,
    select_kappa,
)
from .bch import (
    ExpansionReport,
    VonNeumannReport,
    adjoint_series,
    bch_truncated,
    commutator,
    kappa_shifted_bch,
    log_product,
    log_product_expansion,
    log_product_series,
    von_neumann_rhs,
    von_neumann_second_derivative,
)
from .unbounded import (
    DiscretizedFamily,
    SweepReport,
    advection_matrix,
    diffusion_matrix,
    grid_potential,
    refinement_sweep,
)
from .report import VerificationReport, all_passed, render_csv, render_json
from .campaigns import SUITES, run_suites

__version__ = "0.1.0"
