"""Differentially private counting queries, and what a Bayes corrector recovers.

The package answers counting queries under epsilon-differential privacy with
Laplace output perturbation, applies a posterior-mean correction that an
analyst holding the population model (n, p) could compute from a single
noisy response, and ships a Monte Carlo harness comparing the corrected and
raw estimators across privacy levels.
"""

from .estimators import (
    bayes_estimate,
    bayes_estimate_batch,
    naive_estimate,
    posterior,
)
from .mechanism import (
    OutOfRangeBounds,
    PrivacyLevel,
    calibrate,
    dp_ratio_check,
    laplace_density,
    out_of_range_bounds,
    out_of_range_probability,
    sample_noise,
)
from .prior import (
    BinomialPrior,
    log_mass_vector,
    uncertainty_widths,
)
from .querydb import (
    Predicate,
    QueryResult,
    RecordSet,
    count_query,
    load_records,
    noisy_count_query,
    public_answer,
)
from .simulation import (
    CellFailure,
    CellResult,
    SweepConfig,
    SweepResult,
    run_cell,
    run_sweep,
    write_csv,
)

__all__ = [
    "BinomialPrior",
    "CellFailure",
    "CellResult",
    "OutOfRangeBounds",
    "Predicate",
    "PrivacyLevel",
    "QueryResult",
    "RecordSet",
    "SweepConfig",
    "SweepResult",
    "bayes_estimate",
    "bayes_estimate_batch",
    "calibrate",
    "count_query",
    "dp_ratio_check",
    "laplace_density",
    "load_records",
    "log_mass_vector",
    "naive_estimate",
    "noisy_count_query",
    "out_of_range_bounds",
    "out_of_range_probability",
    "posterior",
    "public_answer",
    "run_cell",
    "run_sweep",
    "sample_noise",
    "uncertainty_widths",
    "write_csv",
]
