"""Command-line front end: synthesize, complete, denoise, evaluate.

Every run writes a JSON manifest next to its outputs recording the
command, the fully resolved configuration, input/output paths, the seed
and the wall time, and a solver run its observation model.  Config
precedence is built-in defaults, then a ``key = value`` config file, then
command-line flags: each ``SolverConfig`` field is both a config key and a
flag (``max_iter`` is ``--max-iter``).  ``complete`` takes one of ``--sr``
and ``--mask``; ``denoise`` takes ``--sp-fraction`` or ``--noniid``, not both.

Exit codes, which :func:`main` returns: 0 on success (including runs where
convergence was not requested), 1 on runtime errors (a path that cannot be
read or written, or a floating-point overflow or invalid operation during a
solve, included), and 2 on usage errors and bad option values (each with one
JSON error line on stderr), 3 when a solver finished without reaching its
tolerance.

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
from .tensorfile import load_tensor, save_tensor

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3


def _error(message, code=EXIT_ERROR):
    sys.stderr.write(json.dumps({"error": message}) + "\n")
    return code


def _warn(message):
    sys.stderr.write(json.dumps({"warning": message}) + "\n")


class _UsageError(Exception):
    """Refused input, from the parser or after it: :func:`main` exits 2."""


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as a :class:`_UsageError`; takes no abbreviated flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _checked(parse, accept, expected):
    """argparse ``type=`` of a bounded value: ``parse(text)``, refused unless
    it parses and ``accept`` holds for it."""
    def convert(text):
        try:
            value = parse(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return convert


def _comma_list(kind):
    """Parses ``a,b,...`` into a tuple of ``kind``."""
    return lambda text: tuple(kind(tok) for tok in text.split(","))


_shape = _checked(_comma_list(int), lambda s: len(s) == 3 and min(s) > 0,
                  "three positive extents I1,I2,I3")  # synth --shape
_range = _checked(_comma_list(float), lambda r: len(r) == 2, "two numbers lo,hi")  # --noniid
_positive = _checked(float, lambda v: 0 < v < np.inf, "a positive finite number")  # synth --peak
_sampling_rate = _checked(float, lambda v: 0 < v <= 1, "a number in (0, 1]")  # --sr
# --seed and --rank: digits only, so a sign or a space is refused too
_non_negative = _checked(lambda text: int(text) if text.isdecimal() else -1, lambda v: v >= 0,
                  "a non-negative integer")


def _field_type(name):
    """argparse ``type=`` of a ``SolverConfig`` field, parsed as in a config file."""
    def parse(text):
        try:
            return parse_field(name, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _resolve_config(args):
    """Defaults, then the config file, then the flags; a bad value is a usage error."""
    try:
        file_options = load_config_file(args.config) if args.config else None
        return build_config(file_options, {f.name: getattr(args, f.name)
                                           for f in fields(SolverConfig)})
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _write_manifest(path, command, config, inputs, outputs, seed, wall_seconds, **extra):
    manifest = dict(command=command, package_version=__version__, config=config, inputs=inputs,
                    outputs=outputs, seed=seed, wall_seconds=wall_seconds, **extra)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_synth(args):
    if args.rank > min(args.shape[:2]):
        raise _UsageError(f"tenrec synth: argument --rank: must not exceed min(I1, I2) = "
                          f"{min(args.shape[:2])}, got {args.rank}")
    started = time.perf_counter()
    t = gen_lowrank(args.shape, args.rank, args.seed)
    if args.peak is not None:
        top = np.max(np.abs(t))
        if top > 0:
            t = t / top * args.peak  # max|t| / top is exactly 1
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


def _add_solver_command(sub, name, summary):
    """The parser of ``complete`` or ``denoise``, with the arguments they share:
    ``input``, ``--gt``, ``--seed``, ``--out``, ``--config`` and one flag per
    ``SolverConfig`` field."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("input", help="tensor file (.tns)")
    parser.add_argument("--gt", type=Path, default=None, help="ground-truth tensor file")
    parser.add_argument("--seed", type=_non_negative, default=0)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--config", type=Path, default=None, help="key = value config file")
    for f in fields(SolverConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            parser.add_argument(flag, action="store_true", default=None)
        else:
            parser.add_argument(flag, type=_field_type(f.name),
                                help=f.metadata.get("help", f"default {f.default}"))
    parser.set_defaults(func=cmd_solve)
    return parser


def build_parser():
    parser = _Parser(
        prog="tenrec",
        description="Tensor completion and robust decomposition with a capped log penalty",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a random low-tubal-rank tensor")
    p_synth.add_argument("--shape", type=_shape, required=True, help="comma list, e.g. 30,30,20")
    p_synth.add_argument("--rank", type=_non_negative, required=True)
    p_synth.add_argument("--seed", type=_non_negative, default=0)
    p_synth.add_argument("--peak", type=_positive, default=None,
                         help="rescale so the largest magnitude equals this value")
    p_synth.add_argument("--out", required=True, help="output .tns path")
    p_synth.set_defaults(func=cmd_synth)

    p_complete = _add_solver_command(sub, "complete", "recover missing entries")
    observed = p_complete.add_mutually_exclusive_group(required=True)
    observed.add_argument("--sr", type=_sampling_rate, default=None,
                          help="sampling rate in (0, 1]")
    observed.add_argument("--mask", type=Path, default=None, help="0/1 mask tensor file")

    p_denoise = _add_solver_command(sub, "denoise", "split into low-rank + sparse + Gaussian")
    impulses = p_denoise.add_mutually_exclusive_group()
    impulses.add_argument("--sp-fraction", type=float, default=0.0, dest="sp_fraction")
    impulses.add_argument("--noniid", type=_range, default=None, help="lo,hi per-slice range")
    p_denoise.add_argument("--gaussian-sigma", type=float, default=0.0, dest="gaussian_sigma")

    p_eval = sub.add_parser("eval", help="score one tensor file against another")
    p_eval.add_argument("recovered")
    p_eval.add_argument("reference")
    p_eval.add_argument("--out", default=None, help="optional output directory")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    """Run one command; the one place that maps a failure to its exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        return _error(str(exc), EXIT_USAGE)
    # TensorFormatError and LinAlgError are ValueErrors, a path's failure an OSError
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        return _error(str(exc) or type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
