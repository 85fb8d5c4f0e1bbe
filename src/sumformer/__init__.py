"""Sum-aggregation sequence models, efficient attention variants, and the
fixed-weight constructions that extract token-feature sums exactly."""

from .attention import (
    LinformerHeadSpec,
    MacCounter,
    PerformerHeadSpec,
    StandardHeadSpec,
    SumExtractionConstruction,
    attention_matrix,
    build_sum_extraction,
    head_forward,
    mac_count,
)
from .equivariance import (
    check_equivariance,
    compose,
    lift,
    permute,
)
from .linalg import softmax_rows
from .mlp import MlpSpec, init_mlp_params, mlp_forward
from .model import (
    DiscreteSumformer,
    LatentPolynomial,
    MlpCombiner,
    MlpFeatureMap,
    PolynomialCombiner,
    PolynomialFeatureMap,
    SumformerModel,
    build_continuous_sumformer,
    build_discrete_sumformer,
    build_mlp_sumformer,
    build_polynomial_sumformer,
    discrete_forward,
    sumformer_forward,
)
from .multisym import (
    DegreeBasis,
    basis_size,
    enumerate_multidegrees,
    generation_oracle,
    power_sum,
    power_sum_vector,
)
from .targets import TARGETS, TargetFunction, get_target
from .train import (
    Dataset,
    OptimizerConfig,
    TrainReport,
    generate_dataset,
    latent_sweep,
    relative_l2_error,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
