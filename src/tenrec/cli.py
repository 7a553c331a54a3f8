"""Command-line front end: synthesize, complete, denoise, evaluate.

Every run writes a JSON manifest next to its outputs recording the
command, the fully resolved configuration, input/output paths, the seed
and the wall time.  Config precedence is built-in defaults, then a
``key = value`` config file, then command-line flags.

Exit codes: 0 on success (including runs where convergence was not
requested), 1 on runtime errors and 2 on usage errors (each with one JSON
error line on stderr), 3 when a solver finished without reaching its tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .completion import complete
from .config import build_config, load_config_file
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
    """Reports each usage error as one JSON error line and exits 2."""

    def error(self, message):
        sys.exit(_error(f"{self.prog}: {message}", EXIT_USAGE))


def _parse_shape(text):
    try:
        shape = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse shape {text!r}")
    if not shape or any(s < 1 for s in shape):
        raise argparse.ArgumentTypeError(f"shape extents must be positive, got {text!r}")
    return shape


def _parse_floats(text):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse comma list of numbers {text!r}")


def _add_config_flags(parser):
    parser.add_argument("--config", type=Path, default=None, help="key = value config file")
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--mu0", type=float, default=None)
    parser.add_argument("--rho0", type=float, default=None)
    parser.add_argument("--gamma1", type=float, default=None)
    parser.add_argument("--growth", type=float, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    parser.add_argument(
        "--beta", type=_parse_floats, default=None,
        help="comma list of pair weights in lexicographic pair order",
    )
    parser.add_argument("--penalty-tau", type=float, default=None, dest="penalty_tau")
    parser.add_argument("--tau1", type=float, default=None)
    parser.add_argument("--tau2", type=float, default=None)
    parser.add_argument("--tau1-scale", type=float, default=None, dest="tau1_scale")
    parser.add_argument("--strict-prox", action="store_true", default=None, dest="strict_prox")


def _resolve_config(args):
    file_options = load_config_file(args.config) if args.config else None
    overrides = {}
    for key in (
        "gamma", "epsilon", "mu0", "rho0", "gamma1", "growth", "tol",
        "max_iter", "beta", "penalty_tau", "tau1", "tau2", "tau1_scale", "strict_prox",
    ):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return build_config(file_options, overrides)


def _write_manifest(path, command, config, inputs, outputs, seed, wall_seconds):
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "wall_seconds": wall_seconds,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_synth(args):
    if len(args.shape) != 3:
        return _error("synth generates 3-way tensors; pass --shape I1,I2,I3", EXIT_USAGE)
    started = time.perf_counter()
    t = gen_lowrank(args.shape, args.rank, args.seed)
    if args.peak is not None:
        if args.peak <= 0:
            return _error(f"--peak must be positive, got {args.peak}", EXIT_USAGE)
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


def cmd_complete(args):
    cfg = _resolve_config(args)
    started = time.perf_counter()
    data = load_tensor(args.input)
    inputs = {"tensor": str(args.input)}

    if args.mask is not None:
        mask = load_tensor(args.mask).astype(bool)
        if mask.shape != data.shape:
            return _error(
                f"mask shape {mask.shape} does not match data shape {data.shape}"
            )
        inputs["mask"] = str(args.mask)
        sr_label = "mask-file"
    elif args.sr is not None:
        if not 0 < args.sr <= 1:
            return _error(f"--sr must lie in (0, 1], got {args.sr}", EXIT_USAGE)
        mask = gen_mask(data.shape, args.sr, args.seed).mask
        sr_label = f"sr={args.sr}"
    else:
        return _error("pass either --sr or --mask", EXIT_USAGE)

    ground_truth = load_tensor(args.gt) if args.gt else (data if args.sr is not None else None)
    observed = np.where(mask, data, 0.0)

    report = complete(observed, mask, cfg, ground_truth=ground_truth)
    out = _out_dir(args)
    save_tensor(out / "recovered.tns", report.tensors["Z"])
    write_trace_csv(out / "trace.csv", report.trace, TRACE_COLUMNS_COMPLETION)

    outputs = {"recovered": str(out / "recovered.tns"), "trace": str(out / "trace.csv")}
    if ground_truth is not None:
        peak = float(np.max(np.abs(ground_truth))) or 1.0
        values = evaluate_all(report.tensors["Z"], ground_truth, peak=peak, ratio=args.ratio)
        values.update(report.metrics)
        write_metrics_csv(out / "metrics.csv", [metric_row("emlcp-tc", sr_label, values)])
        outputs["metrics"] = str(out / "metrics.csv")
        print(
            f"completed: rel_error={report.metrics.get('rel_error', float('nan')):.4e} "
            f"psnr={values['psnr']:.3f} iterations={report.iterations}"
        )
    else:
        print(f"completed: iterations={report.iterations}")

    _write_manifest(
        out / "manifest.json", "complete", cfg.to_dict(), inputs, outputs,
        args.seed, time.perf_counter() - started,
    )
    if not report.converged and cfg.max_iter > 0:
        _warn(f"did not reach tol={cfg.tol} within {cfg.max_iter} iterations")
        return EXIT_NOT_CONVERGED
    if cfg.max_iter == 0:
        _warn("max_iter=0: returning the masked initialization")
    return EXIT_OK


def cmd_denoise(args):
    cfg = _resolve_config(args)
    started = time.perf_counter()
    data = load_tensor(args.input)
    inputs = {"tensor": str(args.input)}

    noise_requested = args.sp_fraction > 0 or args.gaussian_sigma > 0 or args.noniid
    if args.sp_fraction >= 1 or args.sp_fraction < 0:
        return _error(f"--sp-fraction must lie in [0, 1), got {args.sp_fraction}", EXIT_USAGE)
    ground_truth = load_tensor(args.gt) if args.gt else None
    if noise_requested:
        spec = NoiseSpec(args.sp_fraction, args.gaussian_sigma, args.noniid, args.seed)
        try:
            spec.validate()
        except ValueError as exc:
            return _error(str(exc), EXIT_USAGE)
        observed = add_mixed_noise(data, spec)
        if ground_truth is None:
            ground_truth = data
        noise_label = spec.describe()
    else:
        observed = data
        noise_label = "as-given"

    report = decompose(observed, cfg, ground_truth=ground_truth)
    out = _out_dir(args)
    for name in ("L", "E", "N"):
        save_tensor(out / f"{name}.tns", report.tensors[name])
    write_trace_csv(out / "trace.csv", report.trace, TRACE_COLUMNS_RPCA)

    outputs = {name: str(out / f"{name}.tns") for name in ("L", "E", "N")}
    outputs["trace"] = str(out / "trace.csv")
    if ground_truth is not None:
        peak = float(np.max(np.abs(ground_truth))) or 1.0
        values = evaluate_all(report.tensors["L"], ground_truth, peak=peak, ratio=args.ratio)
        values.update(report.metrics)
        write_metrics_csv(out / "metrics.csv", [metric_row("emlcp-rpca", noise_label, values)])
        outputs["metrics"] = str(out / "metrics.csv")
        print(
            f"denoised: rel_error={report.metrics.get('rel_error', float('nan')):.4e} "
            f"psnr={values['psnr']:.3f} iterations={report.iterations}"
        )
    else:
        print(f"denoised: iterations={report.iterations}")

    _write_manifest(
        out / "manifest.json", "denoise", cfg.to_dict(), inputs, outputs,
        args.seed, time.perf_counter() - started,
    )
    if not report.converged and cfg.max_iter > 0:
        _warn(f"did not reach tol={cfg.tol} within {cfg.max_iter} iterations")
        return EXIT_NOT_CONVERGED
    if cfg.max_iter == 0:
        _warn("max_iter=0: returning the initialization")
    return EXIT_OK


def cmd_eval(args):
    started = time.perf_counter()
    x = load_tensor(args.recovered)
    ref = load_tensor(args.reference)
    if x.shape != ref.shape:
        return _error(f"shapes differ: {x.shape} vs {ref.shape}")
    values = evaluate_all(x, ref, peak=args.peak, ratio=args.ratio)
    row = metric_row("eval", "n/a", values)
    print(",".join(str(row[c]) for c in ("psnr", "ssim", "fsim", "ergas")))
    if args.out:
        out = _out_dir(args)
        write_metrics_csv(out / "metrics.csv", [row])
        _write_manifest(
            out / "manifest.json", "eval", {"peak": args.peak, "ratio": args.ratio},
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
    p_synth.add_argument("--rank", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--peak", type=float, default=None,
                         help="rescale so the largest magnitude equals this value")
    p_synth.add_argument("--out", required=True, help="output .tns path")
    p_synth.set_defaults(func=cmd_synth)

    p_complete = sub.add_parser("complete", help="recover missing entries")
    p_complete.add_argument("input", help="tensor file (.tns)")
    p_complete.add_argument("--sr", type=float, default=None, help="sampling rate in (0, 1]")
    p_complete.add_argument("--mask", type=Path, default=None, help="0/1 mask tensor file")
    p_complete.add_argument("--gt", type=Path, default=None, help="ground-truth tensor file")
    p_complete.add_argument("--seed", type=int, default=0)
    p_complete.add_argument("--out", required=True, help="output directory")
    p_complete.add_argument("--ratio", type=float, default=1.0, help="ERGAS resolution ratio")
    _add_config_flags(p_complete)
    p_complete.set_defaults(func=cmd_complete)

    p_denoise = sub.add_parser("denoise", help="split into low-rank + sparse + Gaussian")
    p_denoise.add_argument("input", help="tensor file (.tns)")
    p_denoise.add_argument("--sp-fraction", type=float, default=0.0, dest="sp_fraction")
    p_denoise.add_argument("--gaussian-sigma", type=float, default=0.0, dest="gaussian_sigma")
    p_denoise.add_argument("--noniid", type=_parse_floats, default=None,
                           help="lo,hi per-slice range")
    p_denoise.add_argument("--gt", type=Path, default=None)
    p_denoise.add_argument("--seed", type=int, default=0)
    p_denoise.add_argument("--out", required=True)
    p_denoise.add_argument("--ratio", type=float, default=1.0)
    _add_config_flags(p_denoise)
    p_denoise.set_defaults(func=cmd_denoise)

    p_eval = sub.add_parser("eval", help="score one tensor file against another")
    p_eval.add_argument("recovered")
    p_eval.add_argument("reference")
    p_eval.add_argument("--peak", type=float, default=1.0)
    p_eval.add_argument("--ratio", type=float, default=1.0)
    p_eval.add_argument("--out", default=None, help="optional output directory")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TensorFormatError) as exc:  # np.linalg.LinAlgError is a ValueError
        return _error(str(exc))
    except FileNotFoundError as exc:
        return _error(f"file not found: {exc.filename}")
    except MemoryError:
        return _error("out of memory")


if __name__ == "__main__":
    sys.exit(main())
