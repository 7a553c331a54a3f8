"""Solver configuration: every scalar knob the iterations depend on."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .algebra import mode_pairs

BETA_SUM_TOL = 1e-12
_POSITIVE = ("gamma", "epsilon", "mu0", "rho0", "tol", "penalty_tau", "tau1_scale")


@dataclass(frozen=True)
class SolverConfig:
    """Shared knob set for the completion and robust-PCA solvers.

    Checked when built and frozen after: derive a variant with :meth:`updated`.

    ``beta`` holds one non-negative weight per mode pair in lexicographic
    order, summing to one; ``None`` means uniform.  Pairs with zero weight
    are dropped from the model entirely.  ``growth`` rescales ``mu``, ``rho``
    (and the robust-PCA residual penalty) every sweep; set it to 1.0 to
    freeze the penalties.  ``tau1_scale`` sets the robust-PCA sparse and
    Gaussian weights, see :meth:`resolve_tau`.
    """

    gamma: float = 1e4
    epsilon: float = 0.01
    beta: tuple | None = field(
        default=None, metadata={"help": "comma list of pair weights in lexicographic pair order"})
    mu0: float = 1e-3
    rho0: float = 1e-2
    growth: float = 1.05
    tol: float = 1e-5
    max_iter: int = 500
    penalty_tau: float = 1e-3
    tau1_scale: float = 1.0
    strict_prox: bool = False

    def __post_init__(self):
        if not isinstance(self.strict_prox, (bool, np.bool_)):
            raise ValueError(f"strict_prox must be a bool, got {self.strict_prox!r}")
        # of a type that operator.index takes, as the sweep loop's range()
        # needs; a bool is not a count
        if (isinstance(self.max_iter, (bool, np.bool_))
                or not hasattr(type(self.max_iter), "__index__") or self.max_iter < 0):
            raise ValueError(f"max_iter must be a non-negative integer, got {self.max_iter!r}")
        # Every check below is a comparison, which NaN passes.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("max_iter", "strict_prox") or value is None:
                continue
            if np.asarray(value).dtype.kind not in "iuf":
                raise ValueError(f"{f.name} must be numeric, got {value!r}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in _POSITIVE:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.growth < 1:
            raise ValueError(f"growth must be >= 1, got {self.growth}")
        if self.beta is not None:
            beta = np.asarray(self.beta, dtype=float)
            if np.any(beta < 0):
                raise ValueError("beta weights must be non-negative")
            if abs(beta.sum() - 1.0) > BETA_SUM_TOL:
                raise ValueError(f"beta weights must sum to 1, got {float(beta.sum())!r}")

    def pair_weights(self, ndim):
        """Resolved (pair, weight) list for an ndim-way tensor.

        Pairs carry their lexicographic position; zero-weight pairs are
        excluded from the model.
        """
        pairs = mode_pairs(ndim)
        if self.beta is None:
            return [(pair, 1.0 / len(pairs)) for pair in pairs]
        beta = np.asarray(self.beta, dtype=float)
        if beta.size != len(pairs):
            raise ValueError(f"beta has {beta.size} weights but a {ndim}-way tensor has "
                             f"{len(pairs)} mode pairs")
        return [(pair, float(b)) for pair, b in zip(pairs, beta) if b > 0]

    def resolve_tau(self, shape):
        """Robust-PCA weights ``tau1 = tau1_scale / sqrt(max(I1, I2) * prod(rest))``
        (Lu et al.'s TRPCA lambda at scale one) and ``tau2 = 10 * tau1``."""
        rest = int(np.prod(shape[2:], dtype=np.int64)) if len(shape) > 2 else 1
        tau1 = self.tau1_scale / np.sqrt(max(shape[0], shape[1]) * rest)
        return float(tau1), float(10.0 * tau1)

    def updated(self, **kwargs):
        return replace(self, **kwargs)


_FIELD_TYPES = {f.name: f.type for f in fields(SolverConfig)}
_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def parse_field(name, text):
    """Parse ``text`` by the type of the ``SolverConfig`` field ``name``.

    A tuple is a comma list of numbers and a bool one of true/false,
    yes/no, on/off or 1/0.  ``none`` or an empty value leaves any other
    field at its default.
    """
    kind = _FIELD_TYPES[name].split(" |")[0]
    text = text.strip()
    try:
        if kind == "bool":
            return _BOOLEANS[text.lower()]
        if text.lower() in ("none", ""):
            return None
        if kind == "tuple":
            return tuple(float(tok) for tok in text.split(","))
        return int(text) if kind == "int" else float(text)
    except (KeyError, ValueError):
        raise ValueError(f"cannot parse {name} value {text!r}") from None


def load_config_file(path):
    """Parse a plain ``key = value`` config file into an option dict."""
    options = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        options[key] = parse_field(key, raw)
    return options


def build_config(file_options=None, overrides=None):
    """Layer defaults, config-file options and explicit overrides."""
    merged = {}
    for source in (file_options, overrides):
        if source:
            merged.update({k: v for k, v in source.items() if v is not None})
    return SolverConfig(**merged)
