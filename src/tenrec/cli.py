"""Command-line front end: synthesize, complete, denoise, evaluate.

Every run writes a JSON manifest next to its outputs recording the
command, the fully resolved configuration, input/output paths, the seed
and the wall time, and a solver run its observation model.  Config
precedence is built-in defaults, then a ``key = value`` config file, then
command-line flags: each ``SolverConfig`` field is both a config key and a
flag (``max_iter`` is ``--max-iter``).  ``complete`` takes one of ``--sr``
and ``--mask``; ``denoise`` takes ``--sp-fraction`` or ``--noniid``, not both.

Exit codes: 0 on success (including runs where convergence was not
requested), 1 on runtime errors and 2 on usage errors and bad option values
(each with one JSON error line on stderr), 3 when a solver finished without
reaching its tolerance.

Every score a command writes or prints is :func:`tenrec.metrics.evaluate_all`'s,
in its order, so ``eval`` of a run's output against its ground truth
repeats the run's metrics row.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .completion import complete
from .config import SolverConfig, build_config, load_config_file, parse_field
from .metrics import evaluate_all
from .report import (
    TRACE_COLUMNS_COMPLETION,
    TRACE_COLUMNS_RPCA,
    metric_row,
    write_metrics_csv,
    write_trace_csv,
)
from .rpca import decompose
from .simulate import NoiseSpec, add_mixed_noise, gen_lowrank, gen_mask
from .tensorfile import TensorFormatError, load_tensor, save_tensor

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3


def _error(message, code=EXIT_ERROR):
    sys.stderr.write(json.dumps({"error": message}) + "\n")
    return code


def _warn(message):
    sys.stderr.write(json.dumps({"warning": message}) + "\n")


class _Parser(argparse.ArgumentParser):
    """Reports each usage error as one JSON error line and exits 2; takes no abbreviated flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        sys.exit(_error(f"{self.prog}: {message}", EXIT_USAGE))


class _UsageError(Exception):
    """Input refused after parsing; reported like a parser error, with exit 2."""


def _parse_shape(text):
    """argparse ``type=`` of ``--shape``: three positive extents ``I1,I2,I3``."""
    try:
        shape = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse shape {text!r}")
    if len(shape) != 3 or any(s < 1 for s in shape):
        raise argparse.ArgumentTypeError(f"expected three positive extents I1,I2,I3, got {text!r}")
    return shape


def _parse_range(text):
    """argparse ``type=`` of ``--noniid``: two numbers ``lo,hi``."""
    try:
        lo, hi = (float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers lo,hi, got {text!r}") from None
    return lo, hi


def _number(accept, expected):
    """argparse ``type=`` of a number for which ``accept(value)`` holds."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            value = np.nan
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_positive = _number(lambda v: 0 < v < np.inf, "a positive finite number")  # synth --peak
_sampling_rate = _number(lambda v: 0 < v <= 1, "a number in (0, 1]")  # --sr


def _non_negative_int(text):
    """argparse ``type=`` of ``--seed`` and ``--rank``: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _field_type(name):
    """argparse ``type=`` of a ``SolverConfig`` field, parsed as in a config file."""
    def parse(text):
        try:
            return parse_field(name, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _add_config_flags(parser):
    """``--config`` plus one flag per ``SolverConfig`` field."""
    parser.add_argument("--config", type=Path, default=None, help="key = value config file")
    for f in fields(SolverConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            parser.add_argument(flag, action="store_true", default=None)
        else:
            parser.add_argument(flag, type=_field_type(f.name),
                                help=f.metadata.get("help", f"default {f.default}"))


def _resolve_config(args):
    """Defaults, then the config file, then the flags; a bad value is a usage error."""
    try:
        file_options = load_config_file(args.config) if args.config else None
        return build_config(file_options, {f.name: getattr(args, f.name)
                                           for f in fields(SolverConfig)})
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _write_manifest(path, command, config, inputs, outputs, seed, wall_seconds, **extra):
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "wall_seconds": wall_seconds,
        **extra,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_synth(args):
    if args.rank > min(args.shape[:2]):
        args.parser.error(f"argument --rank: must not exceed min(I1, I2) = "
                          f"{min(args.shape[:2])}, got {args.rank}")
    started = time.perf_counter()
    t = gen_lowrank(args.shape, args.rank, args.seed)
    if args.peak is not None:
        top = np.max(np.abs(t))
        if top > 0:
            t = t * (args.peak / top)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_tensor(out, t)
    _write_manifest(
        str(out) + ".manifest.json", "synth",
        {"shape": list(args.shape), "rank": args.rank, "peak": args.peak},
        {}, {"tensor": str(out)}, args.seed, time.perf_counter() - started,
    )
    print(f"wrote {out} shape={args.shape} rank<={args.rank}")
    return EXIT_OK


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _ground_truth(args, data, fallback):
    """``--gt``, else ``data`` if ``fallback``; refused before the solve
    unless finite and shaped as ``data``."""
    ground_truth = load_tensor(args.gt) if args.gt else (data if fallback else None)
    if ground_truth is not None and ground_truth.shape != data.shape:
        raise ValueError(f"ground truth shape {ground_truth.shape} does not match "
                         f"data {data.shape}")
    if ground_truth is not None and not np.isfinite(ground_truth).all():
        raise ValueError("ground truth holds NaN or inf")
    return ground_truth


def _run_complete(args, data, cfg):
    """Mask from ``--mask`` or ``--sr``, then the completion solver."""
    inputs = {"tensor": str(args.input)}
    if args.mask is not None:
        mask = load_tensor(args.mask)
        if not np.all((mask == 0) | (mask == 1)):
            raise ValueError(f"mask {args.mask} holds values other than 0 and 1")
        mask = mask.astype(bool)
        inputs["mask"] = str(args.mask)
        label, observation = "mask-file", {"mask": str(args.mask)}
    else:
        mask = gen_mask(data.shape, args.sr, args.seed).mask
        label, observation = f"sr={args.sr}", {"sr": args.sr}

    ground_truth = _ground_truth(args, data, args.sr is not None)
    report = complete(data, mask, cfg)
    return report, ground_truth, inputs, label, observation


def _run_denoise(args, data, cfg):
    """Optional synthetic noise from the noise flags, then the robust-PCA solver."""
    try:
        spec = NoiseSpec(args.sp_fraction, args.gaussian_sigma, args.noniid, args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    noise_requested = args.sp_fraction > 0 or args.gaussian_sigma > 0 or args.noniid
    ground_truth = _ground_truth(args, data, noise_requested)
    observed, label = data, "as-given"
    if noise_requested:
        observed, label = add_mixed_noise(data, spec), spec.describe()
    report = decompose(observed, cfg)
    return report, ground_truth, {"tensor": str(args.input)}, label, asdict(spec)


# Per solver command: its input handling and solver call, the metric-row
# method, the summary verb, the trace columns, {output name: report tensor}
# with the scored tensor first, and what a run with max_iter=0 returns.
_SOLVERS = {
    "complete": (_run_complete, "emlcp-tc", "completed", TRACE_COLUMNS_COMPLETION,
                 {"recovered": "Z"}, "the masked initialization"),
    "denoise": (_run_denoise, "emlcp-rpca", "denoised", TRACE_COLUMNS_RPCA,
                {"L": "L", "E": "E", "N": "N"}, "the initialization"),
}


def cmd_solve(args):
    """``complete`` and ``denoise``: solve, then write tensors, trace, metrics and manifest."""
    run, method, verb, columns, written, initial = _SOLVERS[args.command]
    cfg = _resolve_config(args)
    started = time.perf_counter()
    data = load_tensor(args.input)
    try:
        cfg.pair_weights(data.ndim)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    report, ground_truth, inputs, label, observation = run(args, data, cfg)
    # Score before writing anything, so a run that cannot be scored leaves no output.
    if ground_truth is not None:
        values = evaluate_all(report.tensors[next(iter(written.values()))], ground_truth)

    out = _out_dir(args)
    outputs = {name: str(out / f"{name}.tns") for name in written}
    outputs["trace"] = str(out / "trace.csv")
    for name, tensor in written.items():
        save_tensor(outputs[name], report.tensors[tensor])
    write_trace_csv(outputs["trace"], report.trace, columns)
    summary = f"iterations={report.iterations}"
    if ground_truth is not None:
        outputs["metrics"] = str(out / "metrics.csv")
        write_metrics_csv(outputs["metrics"], [metric_row(method, label, values)])
        summary = f"rel_error={values['rel_error']:.4e} psnr={values['psnr']:.3f} {summary}"
    print(f"{verb}: {summary}")

    _write_manifest(out / "manifest.json", args.command, asdict(cfg), inputs, outputs,
                    args.seed, time.perf_counter() - started, observation=observation)
    if not report.converged and cfg.max_iter > 0:
        _warn(f"did not reach tol={cfg.tol} within {cfg.max_iter} iterations")
        return EXIT_NOT_CONVERGED
    if cfg.max_iter == 0:
        _warn(f"max_iter=0: returning {initial}")
    return EXIT_OK


def cmd_eval(args):
    started = time.perf_counter()
    values = evaluate_all(load_tensor(args.recovered), load_tensor(args.reference))
    print(",".join(str(v) for v in values.values()))
    if args.out:
        out = _out_dir(args)
        write_metrics_csv(out / "metrics.csv", [metric_row("eval", "n/a", values)])
        _write_manifest(
            out / "manifest.json", "eval", {},
            {"recovered": str(args.recovered), "reference": str(args.reference)},
            {"metrics": str(out / "metrics.csv")}, None, time.perf_counter() - started,
        )
    return EXIT_OK


def build_parser():
    parser = _Parser(
        prog="tenrec",
        description="Tensor completion and robust decomposition with a capped log penalty",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a random low-tubal-rank tensor")
    p_synth.add_argument("--shape", type=_parse_shape, required=True,
                         help="comma list, e.g. 30,30,20")
    p_synth.add_argument("--rank", type=_non_negative_int, required=True)
    p_synth.add_argument("--seed", type=_non_negative_int, default=0)
    p_synth.add_argument("--peak", type=_positive, default=None,
                         help="rescale so the largest magnitude equals this value")
    p_synth.add_argument("--out", required=True, help="output .tns path")
    p_synth.set_defaults(func=cmd_synth, parser=p_synth)

    p_complete = sub.add_parser("complete", help="recover missing entries")
    p_complete.add_argument("input", help="tensor file (.tns)")
    observed = p_complete.add_mutually_exclusive_group(required=True)
    observed.add_argument("--sr", type=_sampling_rate, default=None,
                          help="sampling rate in (0, 1]")
    observed.add_argument("--mask", type=Path, default=None, help="0/1 mask tensor file")
    p_complete.add_argument("--gt", type=Path, default=None, help="ground-truth tensor file")
    p_complete.add_argument("--seed", type=_non_negative_int, default=0)
    p_complete.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p_complete)
    p_complete.set_defaults(func=cmd_solve)

    p_denoise = sub.add_parser("denoise", help="split into low-rank + sparse + Gaussian")
    p_denoise.add_argument("input", help="tensor file (.tns)")
    impulses = p_denoise.add_mutually_exclusive_group()
    impulses.add_argument("--sp-fraction", type=float, default=0.0, dest="sp_fraction")
    impulses.add_argument("--noniid", type=_parse_range, default=None,
                          help="lo,hi per-slice range")
    p_denoise.add_argument("--gaussian-sigma", type=float, default=0.0, dest="gaussian_sigma")
    p_denoise.add_argument("--gt", type=Path, default=None)
    p_denoise.add_argument("--seed", type=_non_negative_int, default=0)
    p_denoise.add_argument("--out", required=True)
    _add_config_flags(p_denoise)
    p_denoise.set_defaults(func=cmd_solve)

    p_eval = sub.add_parser("eval", help="score one tensor file against another")
    p_eval.add_argument("recovered")
    p_eval.add_argument("reference")
    p_eval.add_argument("--out", default=None, help="optional output directory")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        return _error(str(exc), EXIT_USAGE)
    except (ValueError, TensorFormatError) as exc:  # np.linalg.LinAlgError is a ValueError
        return _error(str(exc))
    except FileNotFoundError as exc:
        return _error(f"file not found: {exc.filename}")
    except MemoryError:
        return _error("out of memory")


if __name__ == "__main__":
    sys.exit(main())
