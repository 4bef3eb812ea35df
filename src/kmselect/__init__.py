"""Provable feature selection for k-means clustering.

Three selection pipelines (two deterministic, one randomized) pick and
rescale actual columns of a data matrix so that clustering the reduced
matrix provably stays within a known factor of clustering the original.
A verification layer checks every guarantee on concrete instances.
"""

from .errors import (
    ArgumentError,
    ContractViolationError,
    NumericalSearchError,
    RankDeficiencyError,
    RankFailureError,
    ResourceLimitError,
    SelectionError,
)
from .linalg import (
    SvdTopK,
    SymEig,
    approx_svd_z,
    frobenius_norm,
    numerical_rank,
    residual,
    sigma_k,
    singular_values,
    spectral_norm,
    svd_top_k,
    sym_eig,
)
from .sparsify import (
    SamplingPlan,
    apply_plan,
    deterministic_sampling_one,
    deterministic_sampling_two,
    identity_plan,
    leverage_scores,
    randomized_sampling,
)
from .kmeans import (
    Clustering,
    brute_force_optimal,
    from_labels,
    indicator,
    kmeanspp_init,
    lloyd,
    lloyd_best,
    objective,
)
from .bounds import (
    BoundReport,
    structural_check,
    theorem1_factor,
    theorem2_factor,
    theorem3_factor,
)
from .pipelines import (
    FeatureSelection,
    randomized_select,
    select_then_cluster,
    supervised_select,
    unsupervised_select,
)

__version__ = "0.1.0"
