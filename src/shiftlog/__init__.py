"""shiftlog: shifted-logarithm calculus for evolution operators.

The package builds two-parameter evolution operators U(t, s) from
time-dependent generators, regularizes their logarithm with a resolvent
shift, a(t, s) = Log(U(t, s) + kappa I), and verifies the product- and
conjugation-series identities that survive when the underlying generators
blow up under mesh refinement.
"""

from .errors import (
    BranchCutError,
    BudgetExceededError,
    ConfigError,
    ContourError,
    ConvergenceRadiusError,
    NoConvergenceError,
    PropagationError,
    ShiftlogError,
    SingularMatrixError,
)
from .linalg import (
    SpectralEnclosure,
    gershgorin_discs,
    matrix_from_json,
    matrix_to_json,
    norm_1,
    off_branch_cut,
    solve,
    spectral_enclosure,
)
from .matfun import (
    ContourSpec,
    FdConfig,
    contour_for,
    expm,
    fd_derivative,
    logm_contour,
    logm_iss,
    sqrtm_db,
)
from .evolution import (
    EvolutionOperator,
    GeneratorSpec,
    check_growth_bound,
    check_semigroup,
    lipschitz_estimate,
    propagate,
)
from .logrep import (
    AsymmetryCheck,
    KappaChoice,
    LogRepresentation,
    alt_generator,
    build_log_representation,
    check_asymmetry,
    recover_generator,
    select_kappa,
)
from .bch import (
    BchTruncation,
    ExpansionReport,
    ShiftedBchCheck,
    SmallnessCheck,
    VonNeumannConfig,
    VonNeumannReport,
    adjoint_series,
    bch_smallness_condition,
    bch_terms,
    bch_truncated,
    commutator,
    kappa_shifted_bch,
    log_product,
    log_product_expansion,
    von_neumann_rhs,
    von_neumann_second_derivative,
)
from .unbounded import (
    DiscretizedFamily,
    SweepReport,
    advection_matrix,
    build,
    diffusion_matrix,
    grid_potential,
    refinement_sweep,
)
from .report import VerificationReport, all_passed, render_csv, render_json
from .campaigns import SUITES, run_suites

__version__ = "0.1.0"
