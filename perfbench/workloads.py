"""The benchmark's workloads: instance builders, solve calls and output checks.

Each workload derives its instance from the benchmark seed, builds it in a
fresh interpreter (``setup_child.py``) that writes ``.tns`` files, and then
solves it repeatedly in the benchmark process.  Every solve is checked
against the ground truth with plain NumPy, independently of
``tenrec.metrics``; a solve that raises, exits non-zero, does not converge,
returns non-finite values or misses the workload's accuracy bound fails and
is not timed.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Seed-commit values of the two shipped acceptance instances; at benchmark
# seed 0 the a1/a2 instances are exactly A1 (seed 42) and A2 (seed 7).
REFERENCE_AT_SEED_0 = {
    "a1-cli": {"sweeps": 219, "rel_error": "5.988e-05"},
    "a2-cli": {"sweeps": 137, "rel_error": "6.479e-03"},
}

# Spans of tenrec functions that a traced solve must reach.  The NumPy kernel
# spans under the prox are left out: replacing the reconstruction einsum by
# a matmul, say, is an optimisation, not a lost layer.
_COMMON = ("penalty.prox", "penalty.shrink", "penalty.weights", "algebra.unfold",
           "algebra.fold", "algebra.fourier_sv")
_COMPLETION = ("completion.complete", "completion.update_z", "completion.lagrangian")
_RPCA = ("rpca.decompose", "rpca.update_l", "rpca.update_e", "rpca.update_n", "rpca.lagrangian")
_CLI = ("cli.main", "tensorfile.load", "tensorfile.save", "metrics.evaluate_all",
        "report.write_trace_csv", "report.write_metrics_csv")


@dataclass
class SolveResult:
    ok: bool
    seconds: float
    sweeps: int = 0
    rel_error: float = float("nan")
    psnr_db: float = float("nan")
    reason: str = ""


def read_tns(path):
    """Parse a ``.tns`` file (magic, version, ndim, u64 extents, f8 payload, column-major)."""
    data = Path(path).read_bytes()
    if data[:5] != b"TNS1\x01":
        raise ValueError(f"{path}: not a version-1 .tns file")
    ndim = data[5]
    shape = struct.unpack(f"<{ndim}Q", data[6:6 + 8 * ndim])
    flat = np.frombuffer(data, dtype="<f8", offset=6 + 8 * ndim)
    return flat.reshape(shape, order="F")


def _score(x, gt, bound):
    """Return (rel_error, psnr_db, reason); reason is empty when the output passes."""
    if x.shape != gt.shape:
        return float("nan"), float("nan"), f"output shape {x.shape} != {gt.shape}"
    if not np.all(np.isfinite(x)):
        return float("nan"), float("nan"), "non-finite output"
    rel = float(np.linalg.norm(x - gt)) / float(np.linalg.norm(gt))
    mse = float(np.mean((x - gt) ** 2))
    peak = float(np.max(np.abs(gt)))
    psnr = 10.0 * np.log10(peak**2 / mse) if mse > 0 else float("inf")
    if not rel <= bound:
        return rel, psnr, f"rel_error {rel:.4e} above bound {bound:g}"
    return rel, psnr, ""


class Workload:
    name = ""
    why = ""
    import_module = "tenrec"
    bound = 1e-2
    expected_spans = ()

    def __init__(self, seed, workdir, root):
        self.seed = seed
        self.workdir = Path(workdir)
        self.root = Path(root)

    def instance_seed(self):
        raise NotImplementedError

    def build(self, tenrec):
        """Generate the instance with the package and write it into the work dir."""
        raise NotImplementedError

    def prepare(self, tenrec):
        """Load the written instance; runs once in the benchmark process, untimed."""
        raise NotImplementedError

    def solve(self, tenrec, warmup=False):
        raise NotImplementedError


class _CliWorkload(Workload):
    import_module = "tenrec.cli"
    command = ""
    output = ""
    config = ""
    extra_args = ()

    def prepare(self, tenrec):
        self.gt = read_tns(self.workdir / "gt.tns")
        self.out = self.workdir / "cli-out"

    def argv(self, warmup):
        argv = [self.command, str(self.workdir / "gt.tns"), *self.extra_args,
                "--seed", str(self.instance_seed()),
                "--config", str(self.root / "configs" / self.config),
                "--out", str(self.out)]
        return argv + (["--max-iter", "2"] if warmup else [])

    def solve(self, tenrec, warmup=False):
        argv = self.argv(warmup)
        shutil.rmtree(self.out, ignore_errors=True)  # never score a stale output
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            started = time.perf_counter()
            try:
                code = tenrec.cli.main(argv)
            except Exception as exc:  # a traceback out of the CLI is a failed solve
                return SolveResult(False, time.perf_counter() - started,
                                   reason=f"raised {type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - started
        if warmup:
            return SolveResult(True, seconds)
        if code != 0:
            return SolveResult(False, seconds,
                               reason=f"exit code {code}: {sink_err.getvalue().strip()}")
        with open(self.out / "trace.csv") as fh:
            sweeps = sum(1 for _ in fh) - 1
        rel, psnr, reason = _score(read_tns(self.out / self.output), self.gt, self.bound)
        return SolveResult(not reason, seconds, sweeps, rel, psnr, reason)


class A1Cli(_CliWorkload):
    name = "a1-cli"
    why = ("A1 completion through tenrec.cli.main: the user path through cli, tensorfile, "
           "simulate, metrics and report on small slices where per-call overhead matters.")
    command = "complete"
    output = "recovered.tns"
    config = "lrtc_synthetic.cfg"
    extra_args = ("--sr", "0.3")
    expected_spans = _COMMON + _COMPLETION + _CLI + ("simulate.gen_mask",)

    def instance_seed(self):
        return 42 + self.seed

    def build(self, tenrec):
        gt = tenrec.gen_lowrank((30, 30, 20), 3, self.instance_seed())
        tenrec.save_tensor(self.workdir / "gt.tns", gt / np.max(np.abs(gt)))


class A2Cli(_CliWorkload):
    name = "a2-cli"
    why = ("A2 robust PCA through the CLI: the same pair sweep plus the rpca L/E/N blocks, "
           "so a shared-sweep change that helps completion but slows rpca shows here.")
    command = "denoise"
    output = "L.tns"
    config = "trpca_synthetic.cfg"
    extra_args = ("--sp-fraction", "0.1", "--gaussian-sigma", "0.05")
    bound = 5e-2
    expected_spans = _COMMON + _RPCA + _CLI + ("simulate.add_mixed_noise",)

    def instance_seed(self):
        return 7 + self.seed

    def build(self, tenrec):
        tenrec.save_tensor(self.workdir / "gt.tns",
                           tenrec.gen_lowrank((30, 30, 10), 2, self.instance_seed()))


class _LibraryComplete(Workload):
    expected_spans = _COMMON + _COMPLETION

    def ground_truth(self, tenrec):
        raise NotImplementedError

    def config(self, tenrec):
        return tenrec.build_config(
            tenrec.load_config_file(self.root / "configs" / "lrtc_synthetic.cfg"))

    def build(self, tenrec):
        gt = self.ground_truth(tenrec)
        gt = gt / np.max(np.abs(gt))
        mask = tenrec.gen_mask(gt.shape, 0.3, self.instance_seed()).mask
        tenrec.save_tensor(self.workdir / "gt.tns", gt)
        tenrec.save_tensor(self.workdir / "mask.tns", mask.astype(float))

    def prepare(self, tenrec):
        self.gt = read_tns(self.workdir / "gt.tns")
        self.mask = read_tns(self.workdir / "mask.tns") != 0.0
        self.observed = np.where(self.mask, self.gt, 0.0)
        self.cfg = self.config(tenrec)

    def solve(self, tenrec, warmup=False):
        cfg = self.cfg.updated(max_iter=2) if warmup else self.cfg
        started = time.perf_counter()
        try:
            report = tenrec.complete(self.observed, self.mask, cfg)
        except Exception as exc:  # a solver exception is a failed solve
            return SolveResult(False, time.perf_counter() - started,
                               reason=f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - started
        if warmup:
            return SolveResult(True, seconds)
        rel, psnr, reason = _score(report.tensors["Z"], self.gt, self.bound)
        if not report.converged:
            reason = f"not converged after {report.iterations} sweeps; " + reason
        return SolveResult(not reason, seconds, report.iterations, rel, psnr, reason)


class LargeComplete(_LibraryComplete):
    name = "large-complete"
    why = ("Library completion of a 100x100x20 rank-5 tensor: the prox SVD and "
           "reconstruction dominate and 5 of 100 singular values survive per slice.")

    def instance_seed(self):
        return 1 + self.seed

    def ground_truth(self, tenrec):
        return tenrec.gen_lowrank((100, 100, 20), 5, self.instance_seed())


class FourwayComplete(_LibraryComplete):
    name = "fourway-complete"
    why = ("Completion of a 16x16x12x8 CP-rank-3 tensor over all 6 pairs: tiny slices, "
           "where unfold/fold, update_z and the Lagrangian do real work.")
    shape = (16, 16, 12, 8)

    def instance_seed(self):
        return self.seed

    def ground_truth(self, tenrec):
        rng = tenrec.make_rng(self.instance_seed())
        factors = [rng.standard_normal((n, 3)) for n in self.shape]
        return np.einsum("ar,br,cr,dr->abcd", *factors)

    def config(self, tenrec):
        # The shipped mu0=2 stops this instance after one sweep with
        # rel_error 0.82 (a false convergence that the output check
        # rejects); mu0 scaled to the longer tubes of a 4-way unfolding
        # reaches the tolerance.
        return super().config(tenrec).updated(beta=None, mu0=20.0)


WORKLOADS = {w.name: w for w in (A1Cli, A2Cli, LargeComplete, FourwayComplete)}
