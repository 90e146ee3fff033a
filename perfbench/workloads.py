"""The three benchmark workloads: what one pass runs and on which inputs.

Each workload is a closed loop with one caller: a pass is one in-process call
of ``shiftlog.cli.main(argv)``, and the next pass starts when it returns.
This module holds data only and imports nothing heavy, so ``run.py``
can read it without loading numpy.
"""

from __future__ import annotations

# Campaign seeds verified in one run.  The worst residual/tolerance ratio of
# one campaign seed spreads from 0.40 to 0.81 over seeds 1..19 and the pass
# time by about 10%, so one run covers several seeds derived from --seed and
# reports medians over them.
CAMPAIGN_SEEDS_PER_RUN = 5

WORKLOADS = {
    # The default campaign: 6 suites, 39 checks, dims 2-16, sweep_dims 8-64.
    "campaign": {
        "config": {},
        "argv": ["verify"],
        "output": "report.json",
    },
    # Diffusion stencils up to n = 96; sweep_dims reaching 128 exceed the
    # default work budget of the refinement sweep.
    "sweep_const": {
        "config": {"sweep_dims": [16, 32, 64, 96]},
        "argv": ["verify", "--suite", "sweep"],
        "output": "report.json",
    },
    # Time-dependent advection: A(t) changes at every step.
    "sweep_tdep": {
        "config": {"family": {"kind": "advection_tdep", "dims": [16, 32, 64, 128]},
                   "t": 0.1, "s": 0.0},
        "argv": ["sweep"],
        "output": "sweep.csv",
    },
}


def pass_seeds(workload: str, seed: int) -> list:
    """Campaign seeds the passes of one run cycle through; ``[None]`` for the
    sweeps, whose stencils do not depend on a seed."""
    if workload == "campaign":
        return [seed + 1000 * i for i in range(CAMPAIGN_SEEDS_PER_RUN)]
    return [None]


def config(workload: str, output_path: str) -> dict:
    """The JSON config a workload's passes read."""
    cfg = dict(WORKLOADS[workload]["config"])
    cfg["output"] = {"path": output_path}
    return cfg


def argv(workload: str, config_path: str, seed) -> list[str]:
    """Command line of one pass."""
    args = WORKLOADS[workload]["argv"] + ["--config", config_path]
    if seed is not None:
        args += ["--seed", str(seed)]
    return args
