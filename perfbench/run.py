"""tenrec benchmark: time to a verified solution on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload a1-cli --seed 0 --seconds 30 --trace 0

One process, closed loop: one solve at a time, BLAS threads set to the
number of usable cores.  Set-up is timed in fresh interpreters; the solve
loop then repeats the seed's instance for ``--seconds`` and checks every
output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced solves and reports per-layer metrics.  The
last line of standard output is one JSON object; the full result, with an
environment stamp, and the spans of a traced run go to
``perfbench/out/<workload>-seed<seed>-trace<t>/``.  Exits non-zero when any
output check fails.
"""

import argparse
import collections
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "solve_s": "s",
    "sweep_ms": "ms",
    "sweeps": "count",
    "psnr_db": "dB",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _set_blas_threads():
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _env_stamp(nproc, seed):
    import hashlib

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tenrec").glob("*.py")):
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "machine": platform.machine(),
    }


def _setup(name, seed, workdir):
    """Time import + build + write in fresh interpreters; the last build is the instance."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), name, str(seed), str(workdir),
             str(ROOT)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {done.returncode}): {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def _measure(workload, tenrec, seconds, tracer=None):
    """Closed loop for ``seconds``; with a tracer, alternate untraced and traced solves.

    Stops starting solves once the next one would likely end after the
    window, but always makes at least one (one of each kind when traced).
    """
    kinds = ("plain", "traced") if tracer is not None else ("plain",)
    results = {kind: [] for kind in kinds}
    started = time.perf_counter()
    turn = 0
    while True:
        kind = kinds[turn % len(kinds)]
        turn += 1
        if tracer is not None and kind == "traced":
            try:
                tracer.install()
                res = workload.solve(tenrec)
            finally:
                tracer.uninstall()
        else:
            res = workload.solve(tenrec)
        results[kind].append(res)
        elapsed = time.perf_counter() - started
        times = [r.seconds for rs in results.values() for r in rs]
        if turn >= len(kinds) and elapsed + statistics.median(times) > seconds:
            return results


def _check(reference, results, tracer, expected):
    """Problems that make the run incorrect, beyond per-solve failures."""
    problems = []
    passed = [r for rs in results.values() for r in rs if r.ok]
    if len({(r.sweeps, r.rel_error) for r in passed}) > 1:
        problems.append("repeated solves of one instance differ (not deterministic)")
    if reference is not None and passed:
        got = {"sweeps": passed[0].sweeps, "rel_error": f"{passed[0].rel_error:.3e}"}
        if got != reference:
            problems.append(f"seed 0 must reproduce {reference}, got {got}")
    if tracer is not None:
        calls = tracer.call_counts()
        missing = [span for span in expected if calls.get(span, 0) == 0]
        if missing:
            problems.append(f"traced layers recorded no calls: {missing}")
    return problems


def main(argv=None):
    args = _parse_args(argv)
    nproc = _set_blas_threads()
    if not (ROOT / "src" / "tenrec" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        sys.stderr.write(f"no tenrec sources under {ROOT}; run from a repository checkout\n")
        return 2

    # NumPy may be imported only now, after the BLAS thread setting is in the
    # environment; workloads and tracing import it.
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setup = _setup(args.workload, args.seed, out)
    workload = workloads.WORKLOADS[args.workload](args.seed, out, ROOT)
    importlib.import_module(workload.import_module)
    tenrec = sys.modules["tenrec"]
    if not Path(tenrec.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"imported tenrec from {tenrec.__file__}, not from {ROOT / 'src'}\n")
        return 2
    workload.prepare(tenrec)
    workload.solve(tenrec, warmup=True)

    tracer = tracing.Tracer() if args.trace else None
    problems = []
    try:
        results = _measure(workload, tenrec, args.seconds, tracer)
    except AttributeError as exc:  # a traced function no longer exists
        results, problems = {"plain": []}, [f"tracing could not be installed: {exc}"]
    every = [r for rs in results.values() for r in rs]
    problems += [f"solve failed: {r.reason}" for r in every if not r.ok]
    reference = workloads.REFERENCE_AT_SEED_0.get(args.workload) if args.seed == 0 else None
    problems += _check(reference, results, tracer, workload.expected_spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [r for r in results["plain"] if r.ok]
    traced = [r for r in results.get("traced", []) if r.ok]
    metrics = reported = {}
    if plain:
        # The mean, not the median: on a shared 2-core x86 host, per-solve
        # times are bimodal (two speed levels alternating every few seconds)
        # and a run's median jumps with whichever level holds the majority.
        # Over 10 seeds of a1-cli the median spread 0.16, the mean 0.08.
        solve_s = statistics.fmean(r.seconds for r in plain)
        sweeps = plain[0].sweeps
        if args.trace:
            layers = tracer.layer_metrics(len(results["traced"]))
            if traced:
                layers["trace.overhead_frac"] = (
                    statistics.fmean(r.seconds for r in traced) / solve_s)
            reached = tracer.layers_reached() | {"solver", "trace"}
            reported = {k: {"value": v, "unit": tracing.LAYER_METRICS[k]}
                        for k, v in layers.items() if k.split(".")[0] in reached}
            metrics = {k: reported[k] for k in tracing.PER_LAYER if k in reported}
        else:
            values = {
                "solve_s": solve_s,
                "sweep_ms": 1000.0 * solve_s / sweeps,
                "sweeps": sweeps,
                "psnr_db": plain[0].psnr_db,
                "setup_s": statistics.median(s["setup_s"] for s in setup),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = reported = {k: {"value": v, "unit": END_TO_END[k]}
                                  for k, v in values.items()}

    timed = plain + traced
    summary = {
        "workload": args.workload,
        "why": workload.why,
        "trace": args.trace,
        "environment": _env_stamp(nproc, args.seed),
        "instance_seed": workload.instance_seed(),
        "solves": {kind: [vars(r) for r in rs] for kind, rs in results.items()},
        "setup": setup,
        "rel_error": plain[0].rel_error if plain else None,
        "failed_frac": (len(every) - len(timed)) / len(every) if every else 1.0,
        "problems": problems,
        "metrics": reported,
    }
    with open(out / "result.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    if tracer is not None:
        tracer.write(out / "spans.json")

    for problem, count in collections.Counter(problems).items():
        print(f"FAIL {problem}" + (f" ({count} times)" if count > 1 else ""))
    print(f"workload {args.workload} seed {args.seed} (instance seed "
          f"{workload.instance_seed()}), trace {args.trace}: {len(timed)} of {len(every)} "
          f"solves passed, failed_frac {summary['failed_frac']:.3f}, "
          f"rel_error {summary['rel_error']}")
    if plain:
        times = sorted(r.seconds for r in plain)
        print(f"untraced solves: {len(times)}, seconds median {statistics.median(times):.4f} "
              f"min {times[0]:.4f} max {times[-1]:.4f}")
    for key, entry in reported.items():
        print(f"{key} = {entry['value']:.6g} {entry['unit']}")
    print("environment " + json.dumps(summary["environment"], sort_keys=True))
    correct = not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(every),
                      "failed": len(every) - len(timed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
