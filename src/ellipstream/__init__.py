"""Streaming ellipsoidal rounding: maintain a sandwich
center + alpha*E inside conv(points) inside center + E with monotone
per-point updates, plus a hull coreset selector, a lower-bound adversary,
and brute-force verification oracles.
"""

from .ellipsoid import (
    Ellipsoid,
    containment_margin,
    log_volume,
    membership,
)
from .update_rule import (
    RoundingState,
    Step,
    UpdateError,
    UpdateParams,
    compute_params,
    solve_gamma,
    step,
)
from .streaming import RunReport, StepRecord, run_fully_online, run_seeded
from .coreset import CoresetTrace, coreset_step, run_coreset
from .adversary import (
    AdversaryTrace,
    library_rule,
    run_adversary,
    shell_point,
    simplex_vertices,
)
from .oracle import (
    HullSpec,
    StepCertificate,
    check_monotone_step,
    hull_membership,
    inequality_suite,
    mvee_khachiyan,
    union_hull_distance,
)

__version__ = "0.1.0"

__all__ = [
    "Ellipsoid",
    "containment_margin",
    "log_volume",
    "membership",
    "RoundingState",
    "Step",
    "UpdateError",
    "UpdateParams",
    "compute_params",
    "solve_gamma",
    "step",
    "RunReport",
    "StepRecord",
    "run_fully_online",
    "run_seeded",
    "CoresetTrace",
    "coreset_step",
    "run_coreset",
    "AdversaryTrace",
    "library_rule",
    "run_adversary",
    "shell_point",
    "simplex_vertices",
    "HullSpec",
    "StepCertificate",
    "check_monotone_step",
    "hull_membership",
    "inequality_suite",
    "mvee_khachiyan",
    "union_hull_distance",
    "__version__",
]
