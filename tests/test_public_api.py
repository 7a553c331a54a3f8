"""The package exports what the solvers, the CLI and the benchmark run.

Reference implementations that only the tests compare against live in
``tests/oracles.py``; these checks keep them from drifting back into the
package or its public names.  The solver options, the solvers' and the
scorers' parameters, the report's fields and the command-line flags are pinned
the same way, so an option cannot be added or come back unnoticed.
"""

import argparse
import inspect
from dataclasses import fields
from pathlib import Path

import tenrec
from tenrec.cli import build_parser

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

SOLVER_CONFIG_FIELDS = [
    "gamma", "epsilon", "beta", "mu0", "rho0", "growth", "tol", "max_iter", "penalty_tau",
    "tau1_scale", "strict_prox",
]

# the solvers take no ground truth, and a report holds no score:
# tenrec.metrics measures a recovery
SOLVER_PARAMETERS = {
    "complete": ["observed", "mask", "config", "track_descent"],
    "decompose": ["observed", "config", "track_descent"],
}

# evaluate_all takes the peak from the reference and ERGAS is always at
# ratio 1; only psnr and ssim take an explicit peak
SCORER_PARAMETERS = {
    "evaluate_all": ["x", "ref"],
    "ergas": ["x", "ref"],
    "psnr": ["x", "ref", "peak"],
    "ssim": ["x", "ref", "peak"],
}

RECOVERY_REPORT_FIELDS = ["tensors", "trace", "converged", "iterations", "notes"]

CONFIG_FLAGS = ["--" + name.replace("_", "-") for name in SOLVER_CONFIG_FIELDS] + ["--config"]

# each subcommand's positional arguments and flags, --help aside
SUBCOMMANDS = {
    "synth": ([], ["--shape", "--rank", "--seed", "--peak", "--out"]),
    "complete": (["input"], ["--sr", "--mask", "--gt", "--seed", "--out"] + CONFIG_FLAGS),
    "denoise": (["input"], ["--sp-fraction", "--noniid", "--gaussian-sigma", "--gt", "--seed",
                            "--out"] + CONFIG_FLAGS),
    "eval": (["recovered", "reference"], ["--out"]),
}

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


def test_solver_config_fields():
    assert [f.name for f in fields(tenrec.SolverConfig)] == SOLVER_CONFIG_FIELDS


def test_solver_parameters():
    assert {name: list(inspect.signature(getattr(tenrec, name)).parameters)
            for name in SOLVER_PARAMETERS} == SOLVER_PARAMETERS


def test_scorer_parameters():
    assert {name: list(inspect.signature(getattr(tenrec, name)).parameters)
            for name in SCORER_PARAMETERS} == SCORER_PARAMETERS


def test_recovery_report_fields():
    assert [f.name for f in fields(tenrec.RecoveryReport)] == RECOVERY_REPORT_FIELDS


def test_subcommand_arguments():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {}
    for name, subparser in sub.choices.items():
        actions = [a for a in subparser._actions if not isinstance(a, argparse._HelpAction)]
        found[name] = ([a.dest for a in actions if not a.option_strings],
                       sorted(s for a in actions for s in a.option_strings))
    assert found == {name: (positional, sorted(flags))
                     for name, (positional, flags) in SUBCOMMANDS.items()}
