"""The package exports what the solvers, the CLI and the benchmark run.

Reference implementations that only the tests compare against live in
``tests/oracles.py``; these checks keep them from drifting back into the
package or its public names.
"""

from pathlib import Path

import tenrec

PUBLIC = [
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

SRC = Path(tenrec.__file__).resolve().parent


def test_all_lists_the_public_names():
    assert sorted(tenrec.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in tenrec.__all__:
        assert hasattr(tenrec, name), name


def test_package_does_not_reach_into_the_test_oracles():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    for path in sources:
        assert "oracles" not in path.read_text(), path
