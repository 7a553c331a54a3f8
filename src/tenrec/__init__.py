"""Tensor recovery with a capped logarithmic singular-value penalty.

Mode-pair unfolding and the tube-wise product, the penalty with the
weight updates and proximal shrinkage the solvers run, two alternating
solvers (completion and robust PCA), synthetic-instance generators,
quality metrics, and a flat binary tensor file format.
"""

__version__ = "0.1.0"

from .algebra import (
    fold_mode_pair,
    fourier_singular_values,
    mode_pairs,
    t_product,
    unfold_mode_pair,
)
from .completion import complete
from .config import SolverConfig, build_config, load_config_file
from .metrics import ergas, evaluate_all, psnr, ssim
from .penalty import (
    mlcp,
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
    "load_config_file",
    "load_tensor",
    "make_rng",
    "mlcp",
    "mode_pairs",
    "psnr",
    "save_tensor",
    "shrink_singular_values",
    "soft_threshold",
    "ssim",
    "t_product",
    "unfold_mode_pair",
    "update_lambda_bar",
    "update_weights",
    "weighted_log_prox",
]
