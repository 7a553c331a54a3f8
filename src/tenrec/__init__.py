"""Tensor recovery with a capped logarithmic singular-value penalty.

Dense tube-product algebra, the penalty family with its closed-form
weight minimiser and proximal shrinkage, two alternating solvers
(completion and robust PCA), synthetic-instance generators, quality
metrics, and a flat binary tensor file format.
"""

__version__ = "0.1.0"

from .algebra import (
    fold_mode_pair,
    fourier_singular_values,
    mode_pairs,
    multi_rank,
    n_tubal_rank,
    t_product,
    tnn,
    tubal_rank,
    unfold_mode_pair,
)
from .completion import complete
from .config import SolverConfig, build_config, load_config_file
from .metrics import ergas, evaluate_all, psnr, ssim
from .penalty import (
    WeightState,
    lgamma_norm,
    log_weighted_norm,
    mlcp,
    mlcp_weight_minimizer,
    shrink_singular_values,
    update_lambda_bar,
    update_weights,
    weighted_log_prox,
)
from .report import RecoveryReport
from .rpca import decompose, soft_threshold
from .simulate import NoiseSpec, SamplingMask, add_mixed_noise, gen_lowrank, gen_mask, make_rng
from .tensorfile import TensorFormatError, load_tensor, save_tensor

__all__ = [
    "NoiseSpec",
    "RecoveryReport",
    "SamplingMask",
    "SolverConfig",
    "TensorFormatError",
    "WeightState",
    "add_mixed_noise",
    "build_config",
    "complete",
    "decompose",
    "ergas",
    "evaluate_all",
    "fold_mode_pair",
    "fourier_singular_values",
    "gen_lowrank",
    "gen_mask",
    "lgamma_norm",
    "load_config_file",
    "load_tensor",
    "log_weighted_norm",
    "make_rng",
    "mlcp",
    "mlcp_weight_minimizer",
    "mode_pairs",
    "multi_rank",
    "n_tubal_rank",
    "psnr",
    "save_tensor",
    "shrink_singular_values",
    "soft_threshold",
    "ssim",
    "t_product",
    "tnn",
    "tubal_rank",
    "unfold_mode_pair",
    "update_lambda_bar",
    "update_weights",
    "weighted_log_prox",
]
