"""Spans around tenrec's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``tenrec`` module that holds it, since ``completion``, ``rpca`` and
``cli`` import their helpers by name.  The NumPy kernels that
``penalty.weighted_log_prox`` calls (SVD, FFT, reconstruction ``einsum``)
are wrapped in ``numpy`` itself and recorded only when called directly
under a prox span.  Spans are (name, start, end, parent) rows kept in
memory; ``layer_metrics`` turns them into per-solve layer figures.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# (module, function) -> span name.  Several functions may share a layer
# prefix; layer totals below sum the spans by name.
TRACED = {
    ("penalty", "weighted_log_prox"): "penalty.prox",
    ("penalty", "shrink_singular_values"): "penalty.shrink",
    ("penalty", "update_weights"): "penalty.weights",
    ("penalty", "update_lambda_bar"): "penalty.lambda_bar",
    ("algebra", "unfold_mode_pair"): "algebra.unfold",
    ("algebra", "fold_mode_pair"): "algebra.fold",
    ("algebra", "fourier_singular_values"): "algebra.fourier_sv",
    ("completion", "complete"): "completion.complete",
    ("completion", "update_z"): "completion.update_z",
    ("completion", "lagrangian_value"): "completion.lagrangian",
    ("rpca", "decompose"): "rpca.decompose",
    ("rpca", "update_l"): "rpca.update_l",
    ("rpca", "update_e"): "rpca.update_e",
    ("rpca", "update_n"): "rpca.update_n",
    ("rpca", "_lagrangian"): "rpca.lagrangian",
    ("cli", "main"): "cli.main",
    ("tensorfile", "load_tensor"): "tensorfile.load",
    ("tensorfile", "save_tensor"): "tensorfile.save",
    ("metrics", "evaluate_all"): "metrics.evaluate_all",
    ("report", "write_trace_csv"): "report.write_trace_csv",
    ("report", "write_metrics_csv"): "report.write_metrics_csv",
    ("report", "metric_row"): "report.metric_row",
    ("simulate", "gen_mask"): "simulate.gen_mask",
    ("simulate", "add_mixed_noise"): "simulate.add_mixed_noise",
}

PROX = "penalty.prox"
KERNELS = {
    (np.linalg, "svd"): "penalty.prox.svd",
    (np.fft, "fft"): "penalty.prox.fft",
    (np.fft, "ifft"): "penalty.prox.fft",
    (np.fft, "rfft"): "penalty.prox.fft",
    (np.fft, "irfft"): "penalty.prox.fft",
    (np, "einsum"): "penalty.prox.recon",
}

# name -> unit; the order is the order of BENCHMARK.json.
LAYER_METRICS = {
    "penalty.prox.s": "s",
    "penalty.prox.calls": "count",
    "penalty.prox.svd.s": "s",
    "penalty.prox.svd.slices": "count",
    "penalty.prox.fft.s": "s",
    "penalty.prox.recon.s": "s",
    "penalty.prox.self.s": "s",
    "penalty.prox.sv_computed": "count",
    "penalty.prox.sv_kept": "count",
    "penalty.prox.kept_ratio": "ratio",
    "penalty.shrink.s": "s",
    "penalty.weights.s": "s",
    "algebra.unfold.s": "s",
    "algebra.unfold.calls": "count",
    "algebra.unfold.bytes": "B",
    "algebra.fold.s": "s",
    "algebra.fold.calls": "count",
    "algebra.fold.bytes": "B",
    "algebra.fourier_sv.s": "s",
    "completion.update_z.s": "s",
    "completion.lagrangian.s": "s",
    "completion.self.s": "s",
    "rpca.update_l.s": "s",
    "rpca.update_e.s": "s",
    "rpca.update_n.s": "s",
    "rpca.lagrangian.s": "s",
    "rpca.self.s": "s",
    "solver.data_block.s": "s",
    "solver.lagrangian.s": "s",
    "solver.self.s": "s",
    "cli.self.s": "s",
    "tensorfile.s": "s",
    "tensorfile.bytes": "B",
    "metrics.s": "s",
    "report.s": "s",
    "simulate.s": "s",
    "trace.overhead_frac": "ratio",
}

# The per-layer metrics of BENCHMARK.json: the layers on every workload's
# path, with the solver's data block, Lagrangian and self time under one
# name.  The module-named figures above go to the printed report and the
# result file of the workloads that reach them.
PER_LAYER = tuple(k for k in LAYER_METRICS
                  if k.split(".")[0] in ("penalty", "algebra", "solver", "trace"))


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = {}
        self.stack = []
        self._patched = []

    def _count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, fn, name, only_under=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)
        measure = self._measures(name)

        def traced(*args, **kwargs):
            if only_under is not None and (not stack or names[stack[-1]] != only_under):
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                starts[idx] = t0
                stack.pop()
            if measure is not None:
                measure(args, out)
            return out

        return traced

    def _measures(self, name):
        """Counters recorded at the span boundary, from argument and result sizes."""
        if name == "penalty.prox.svd":
            return lambda args, out: self._count("svd.slices", int(np.prod(args[0].shape[:-2])))
        if name == "penalty.shrink":
            def shrink(args, out):
                if self.stack and self.names[self.stack[-1]] == PROX:
                    self._count("sv_computed", int(np.size(out)))
                    self._count("sv_kept", int(np.count_nonzero(out)))
            return shrink
        if name in ("algebra.unfold", "algebra.fold"):
            return lambda args, out: self._count(name + ".bytes", out.nbytes)
        if name == "tensorfile.save":
            return lambda args, out: self._count("tensorfile.bytes", np.asarray(args[1]).nbytes)
        if name == "tensorfile.load":
            return lambda args, out: self._count("tensorfile.bytes", out.nbytes)
        return None

    def install(self):
        """Wrap every traced function in each tenrec module that holds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "tenrec" or key.startswith("tenrec."))]
        for (module_name, attr), span in TRACED.items():
            module = sys.modules.get(f"tenrec.{module_name}")
            if module is None:
                continue
            original = getattr(module, attr)  # AttributeError: the traced name is gone
            wrapper = self._wrap(original, span)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))
        for (holder, attr), span in KERNELS.items():
            original = getattr(holder, attr)
            setattr(holder, attr, self._wrap(original, span, only_under=PROX))
            self._patched.append((holder, attr, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def call_counts(self):
        out = {}
        for name in self.names:
            out[name] = out.get(name, 0) + 1
        return out

    def layer_metrics(self, solves):
        """Per-solve layer figures over every recorded span."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += dur[idx]
        total, selfs = {}, {}
        for idx, name in enumerate(self.names):
            total[name] = total.get(name, 0.0) + dur[idx]
            selfs[name] = selfs.get(name, 0.0) + dur[idx] - child_time[idx]
        calls = self.call_counts()

        def t(*names):
            return sum(total.get(n, 0.0) for n in names) / solves

        def prefixed(prefix):
            return t(*(n for n in total if n.startswith(prefix)))

        computed = self.counts.get("sv_computed", 0)
        out = {
            "penalty.prox.s": t(PROX),
            "penalty.prox.calls": calls.get(PROX, 0) / solves,
            "penalty.prox.svd.s": t("penalty.prox.svd"),
            "penalty.prox.svd.slices": self.counts.get("svd.slices", 0) / solves,
            "penalty.prox.fft.s": t("penalty.prox.fft"),
            "penalty.prox.recon.s": t("penalty.prox.recon"),
            "penalty.prox.self.s": selfs.get(PROX, 0.0) / solves,
            "penalty.prox.sv_computed": computed / solves,
            "penalty.prox.sv_kept": self.counts.get("sv_kept", 0) / solves,
            "penalty.prox.kept_ratio": self.counts.get("sv_kept", 0) / computed if computed else 0.0,
            "penalty.shrink.s": t("penalty.shrink"),
            "penalty.weights.s": t("penalty.weights", "penalty.lambda_bar"),
            "algebra.unfold.s": t("algebra.unfold"),
            "algebra.unfold.calls": calls.get("algebra.unfold", 0) / solves,
            "algebra.unfold.bytes": self.counts.get("algebra.unfold.bytes", 0) / solves,
            "algebra.fold.s": t("algebra.fold"),
            "algebra.fold.calls": calls.get("algebra.fold", 0) / solves,
            "algebra.fold.bytes": self.counts.get("algebra.fold.bytes", 0) / solves,
            "algebra.fourier_sv.s": t("algebra.fourier_sv"),
            "completion.update_z.s": t("completion.update_z"),
            "completion.lagrangian.s": t("completion.lagrangian"),
            "completion.self.s": selfs.get("completion.complete", 0.0) / solves,
            "rpca.update_l.s": t("rpca.update_l"),
            "rpca.update_e.s": t("rpca.update_e"),
            "rpca.update_n.s": t("rpca.update_n"),
            "rpca.lagrangian.s": t("rpca.lagrangian"),
            "rpca.self.s": selfs.get("rpca.decompose", 0.0) / solves,
            "cli.self.s": selfs.get("cli.main", 0.0) / solves,
            "tensorfile.s": prefixed("tensorfile."),
            "tensorfile.bytes": self.counts.get("tensorfile.bytes", 0) / solves,
            "metrics.s": prefixed("metrics."),
            "report.s": prefixed("report."),
            "simulate.s": prefixed("simulate."),
        }
        out["solver.data_block.s"] = (out["completion.update_z.s"] + out["rpca.update_l.s"]
                                      + out["rpca.update_e.s"] + out["rpca.update_n.s"])
        out["solver.lagrangian.s"] = out["completion.lagrangian.s"] + out["rpca.lagrangian.s"]
        out["solver.self.s"] = out["completion.self.s"] + out["rpca.self.s"]
        return out

    def layers_reached(self):
        return {name.split(".")[0] for name in self.names}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "rows": list(zip(self.names, self.starts, self.ends, self.parents))}, fh)
