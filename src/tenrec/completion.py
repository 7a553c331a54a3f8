"""Low-rank tensor completion, and the sweep both solvers share.

The model couples every mode-pair unfolding of the estimate to an
auxiliary low-rank surrogate through an augmented Lagrangian.  One sweep
(:func:`run_sweeps`) runs in PALM order, each step writing its own
variables once: the pair steps (per pair: singular-value weights,
surrogate shrinkage, weight targets), the data step, the multiplier
ascent, the trace row, and the geometric growth of the penalties.  Only
the sweep reads the pairs: it hands the data block their pull
(:func:`pair_pull`), which the data step reads row block by row block,
and adds their part of the Lagrangian (:func:`lagrangian_value`).  For
completion the data block is the estimate itself: observed entries keep
the data, which the estimate alone holds, and unobserved entries take a
beta-weighted average of the surrogates.  Robust PCA (:mod:`tenrec.rpca`)
runs the same sweep with its L/E/N block: completion is robust PCA with
E = N = 0 plus a mask projection.

The sweep's own elementwise steps hold no full-size temporary: each runs
over row blocks (:func:`~tenrec.penalty._row_blocks`), one block's
temporaries alive at a time, and writes its result where the value it
replaces is dead; the data step writes the estimate over itself, and the
prox transforms its argument over the surrogate's own buffer, from the
first sweep on.  So a solve holds its state plus one transient.

The model itself is stated by the test suite's ``palm_complete`` (and
``palm_decompose``), a dense transcription of the sweep that the tests
hold this one to, sweep by sweep.  A change to the model edits that
reference in the same diff.
"""

from __future__ import annotations

import time

import numpy as np

from .algebra import _mirror_count, fold_mode_pair, fourier_singular_values, unfold_mode_pair
from .config import SolverConfig
from .penalty import (_row_blocks, prox_buffer, shrink_singular_values, update_lambda_bar,
                      update_weights, weighted_log_prox)
from .report import RecoveryReport

# rho1 = GAMMA1 * mu is the surrogate step's proximal scalar.  PALM needs
# rho1 > mu (Bolte, Sabach & Teboulle 2014); every shipped config used 1.1.
GAMMA1 = 1.1


class PairState:
    """Per-mode-pair variables, as plain arrays: surrogate ``m``, multiplier
    ``q``, weights ``w``, their target ``lam_bar`` and singular values
    ``sigma`` (R x (I3 // 2 + 1): per half-spectrum slice, which a sum over
    the spectrum counts ``count`` times), and the warm start ``basis`` of
    the shrinkage (``None`` until the prox returns one).

    ``m`` starts as a copy of ``x_unf``, the pair's unfolding of the
    estimate, in a :func:`~tenrec.penalty.prox_buffer`, so every shrinkage
    step, the first one too, writes its argument over its surrogate and
    transforms it there.  The copy is made after ``sigma`` is factored and
    before ``q`` exists, so neither is held while the slices are."""

    def __init__(self, pair, beta, x_unf):
        self.pair = pair
        self.beta = beta
        self.count = _mirror_count(x_unf.shape[2])
        self.w = np.ones((min(x_unf.shape[0], x_unf.shape[1]), self.count.size))
        self.lam_bar = np.ones_like(self.w)
        # Fourier-slice singular values of the unfolding, non-increasing per column;
        # carried between sweeps so only the shrinkage step has to factor
        # slices.
        self.sigma = fourier_singular_values(x_unf)
        self.m = prox_buffer(x_unf.shape)
        self.m[...] = x_unf
        self.q = np.zeros(x_unf.shape)
        self.basis = None


def update_m_pair(m, z_unf, q, w_new, mu, rho1, epsilon, strict=False, basis=None):
    """Shrinkage step on one pair's surrogate.

    The argument ``m + (mu*z + q - mu*m)/rho1`` is the proximal-linearized
    point; its Fourier-slice singular values are shrunk under the fixed
    weights ``w_new`` (as :class:`PairState` holds them) with quadratic
    scale ``rho1``.  ``basis`` is the ``next_basis`` this pair's previous
    step returned, or None.  The argument is written over ``m``, which
    must be writeable, row block by row block, and the prox transforms it
    in place (``overwrite_y``) when ``m`` starts a buffer with room for
    that, as a :class:`PairState`'s surrogate always does: ``m`` is lost.

    Returns (m_new, sigma_new, sigma_arg, next_basis), as
    :func:`~tenrec.penalty.weighted_log_prox` returns them.  After a
    truncated factorization ``sigma_arg`` is NaN past the values it
    computed; the solvers read it only to count strict-mode flips, and a
    NaN never counts as one.  ``next_basis`` is the warm start of the
    pair's next step.
    """
    for rows in _row_blocks(m):
        t = mu * z_unf[rows]
        t += q[rows]
        t -= mu * m[rows]
        t /= rho1
        m[rows] += t
        del t  # not held while the next block is made
    return weighted_log_prox(m, w_new, rho1, epsilon, strict=strict, basis=basis,
                             overwrite_y=True)


def pair_pull(states, mu, shape):
    """The pairs' pull on a data block's estimate ``x`` of ``shape``:
    ``(pull, sum(beta*mu))``, where ``pull(rows)`` gives a new block,
    ``sum(beta * fold(mu*M - Q))`` on ``x[rows]``.  Every pair's M and Q
    fold onto ``shape`` as read-only views, so the sum is made block by
    block, over the pairs in order from the first pair's term (one pair's
    pull is that term exactly), and no full-size pull exists."""
    folds = [(fold_mode_pair(st.m, *st.pair, shape), fold_mode_pair(st.q, *st.pair, shape),
              st.beta) for st in states]

    def term(m, q, beta, rows):
        # C-ordered whatever the fold's strides, so the data step's passes
        # over the block run in memory order
        t = np.multiply(mu, m[rows], order="C")
        t -= q[rows]
        t *= beta
        return t

    def pull(rows):
        terms = (term(*fold, rows) for fold in folds)
        total = next(terms)
        for t in terms:
            total += t
        return total

    return pull, sum(st.beta * mu for st in states)


def update_z(index, z, pull, weight, rho):
    """Closed-form estimate update.

    Observed entries stay fixed to the data; unobserved entries average
    the pairs' pull (see :func:`pair_pull`) with the previous iterate.
    This is the exact minimiser of the beta-weighted Lagrangian
    (:func:`lagrangian_value`) plus the proximal term ``(rho/2)*||z -
    z_prev||^2`` over the unobserved entries.

    ``index`` holds the observed entries' flat C-order indices, in
    increasing order, and ``z`` must hold the data there: each block's
    observed entries are copied from the block of ``z`` they replace, so
    they keep the data bit for bit.  The estimate is written over ``z``
    row block by row block; returns ``max |z - z_prev|`` of that pass.
    """
    width = z.size // len(z)

    def block(rows):
        new = pull(rows)
        new += rho * z[rows]
        new /= rho + weight
        start = rows.start * width
        lo, hi = index.searchsorted(start), index.searchsorted(rows.stop * width)
        local = index[lo:hi] - start
        np.put(new, local, z[rows].take(local))
        return new

    return _replace_blocks(z, block)


def lagrangian_value(states, quads, gamma, epsilon):
    """The pairs' part of the augmented Lagrangian: per pair, beta * (its
    weighted log term and target tether, summed over the whole spectrum,
    and its quadratic ``quads[i] = (mu/2)*||unfold(x) - M + Q/mu||^2`` as
    :func:`_ascend` sums it)."""
    total = 0.0
    for st, quad in zip(states, quads):
        energy = np.sum(st.count * (st.w * np.log1p(st.sigma / epsilon)
                                    + 0.5 * gamma * (st.w - st.lam_bar) ** 2))
        total += st.beta * float(energy + quad)
    return total


class _MaskedEstimate:
    """Completion's data block for :func:`run_sweeps`: the masked z step.

    Its state is the estimate ``x`` and the observed entries' sorted flat
    C-order ``index``; the observed values live in ``x`` alone, which
    :func:`update_z` keeps at the data."""

    def __init__(self, observed, mask):
        # read once per solve, in any memory order
        self.index = np.flatnonzero(mask)
        if self.index.size == 0:
            raise ValueError("mask observes no entry")
        values = observed[mask]
        if not np.all(np.isfinite(values)):
            raise ValueError("observed entries must be finite")
        self.x = np.zeros(observed.shape)
        np.put(self.x, self.index, values)

    def step(self, pull, weight, rho):
        return update_z(self.index, self.x, pull, weight, rho)

    def ascend(self, growth):
        # no multiplier or penalty of its own; the observation constraint's
        # indicator adds 0 to the Lagrangian
        return 0.0, {}

    def tensors(self):
        return {"Z": self.x}


def complete(observed, mask, config=None):
    """Recover missing entries of a partially observed tensor.

    Args:
        observed: data tensor; only entries under ``mask`` are trusted.
        mask: boolean tensor of observed positions, same shape.
        config: SolverConfig; package defaults when omitted.

    Returns:
        RecoveryReport with the completed tensor under ``tensors['Z']``, which
        :mod:`tenrec.metrics` scores against a ground truth.  Its observed
        entries are the data, bit for bit: the solve keeps them in the
        estimate alone, beside their flat indices, and no other copy.

    Raises:
        ValueError: on a mask or data it cannot use: a mask that is not
            boolean, of another shape, or that observes no entry, a
            tensor with a zero extent, or an observed entry that is not
            finite.
        FloatingPointError: on a floating-point overflow or invalid
            operation during the sweeps (see :func:`run_sweeps`).
    """
    observed = np.asarray(observed, dtype=float)
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ValueError("mask must be boolean")
    if mask.shape != observed.shape:
        raise ValueError(f"mask shape {mask.shape} does not match data {observed.shape}")
    if observed.ndim < 2:
        raise ValueError("completion needs at least a 2-way tensor")
    if 0 in observed.shape:
        raise ValueError(f"tensor of shape {observed.shape} has a zero extent")
    block = _MaskedEstimate(observed, mask)
    del observed, mask  # the block's estimate holds the observed entries
    return run_sweeps(config or SolverConfig(), block)


@np.errstate(over="raise", divide="raise", invalid="raise")
def run_sweeps(cfg, block):
    """The sweeps of both solvers, until no entry of the estimate moves more
    than ``cfg.tol``.

    A sweep runs the pair steps, the data step, the ascent, the trace row
    and the penalty growth.  ``block`` is the solver's data block.  It
    has four members: the estimate ``x``; ``step(pull, weight, rho)``, its
    primal update given the pairs' pull on ``x`` from :func:`pair_pull`,
    which writes the new estimate over ``x`` and returns ``max |x -
    x_prev|``, which the stop test reads; ``ascend(growth)``, its own
    multiplier step, which returns ``(its part of the Lagrangian at the
    new multiplier, extra trace columns)`` from that pass and then grows
    its own penalty by ``growth``; and ``tensors()``.  The sweep adds the
    pairs' part of the Lagrangian (:func:`lagrangian_value`).  Only the
    sweep reads the pairs' states and ``mu``.

    Raises:
        FloatingPointError: where a floating-point overflow, division by
            zero or invalid operation happens (data too large in magnitude,
            say).  Underflow is left as the caller set it, and the caller's
            error state returns after the sweeps.
    """
    states = [
        PairState(pair, beta, unfold_mode_pair(block.x, pair[0], pair[1]))
        for pair, beta in cfg.pair_weights(block.x.ndim)
    ]
    trace = []
    notes = {"strict_flips": 0}
    mu, rho = cfg.mu0, cfg.rho0
    converged = False
    started = time.perf_counter()

    iterations = 0
    for it in range(1, cfg.max_iter + 1):
        iterations = it
        for st in states:
            notes["strict_flips"] += _pair_step(st, block.x, mu, rho, cfg)
        diff = block.step(*pair_pull(states, mu, block.x.shape), rho)

        quads = _ascend(states, block.x, mu)
        own, columns = block.ascend(cfg.growth)
        trace.append({
            "iter": it,
            "inf_norm_diff": diff,
            "lagrangian": own + lagrangian_value(states, quads, cfg.gamma, cfg.epsilon),
            "seconds": time.perf_counter() - started,
            **columns,
        })

        mu *= cfg.growth
        rho *= cfg.growth
        if diff <= cfg.tol:
            converged = True
            break

    return RecoveryReport(tensors=block.tensors(), trace=trace, converged=converged,
                          iterations=iterations, notes=notes)


def _ascend(states, x, mu):
    """Ascent on every pair's multiplier, ``Q += mu*(unfold(x) - M)`` in
    place, block by block; returns each pair's quadratic
    ``(mu/2)*||unfold(x) - M + Q/mu||^2`` at the new ``Q``, summed as
    ``||mu*(unfold(x) - M) + Q||^2 / (2*mu)``."""
    quads = []
    for st in states:
        x_unf = unfold_mode_pair(x, *st.pair)
        total = 0.0
        for rows in _row_blocks(x_unf):
            t = x_unf[rows] - st.m[rows]
            t *= mu
            st.q[rows] += t
            t += st.q[rows]
            total += _sum_sq(t)
            del t  # not held while the next block is made
        quads.append(total / (2.0 * mu))
    return quads


def _pair_step(st, x, mu, rho, cfg):
    """Weights, surrogate shrinkage (with its next warm start) and weight
    targets of one pair, each written into ``st``; the multiplier is left
    to the ascent.  Returns the number of values that strict mode zeroes
    and the default rule keeps (0 outside strict mode)."""
    rho1 = GAMMA1 * mu
    st.w = update_weights(st.sigma, st.w, st.lam_bar, cfg.gamma, rho, cfg.epsilon)
    st.m, st.sigma, sigma_arg, st.basis = update_m_pair(
        st.m, unfold_mode_pair(x, st.pair[0], st.pair[1]), st.q, st.w, mu, rho1, cfg.epsilon,
        strict=cfg.strict_prox, basis=st.basis,
    )
    st.lam_bar = update_lambda_bar(st.w, st.lam_bar, cfg.gamma, rho)
    if not cfg.strict_prox:
        return 0
    default_vals = shrink_singular_values(sigma_arg, st.w, rho1 / st.m.shape[2], cfg.epsilon)
    return int(np.sum(st.count * (default_vals != st.sigma)))


def _sum_sq(a):
    """Sum of the squares of a C-contiguous array, by einsum, not a threaded
    BLAS dot that can stall on a large array."""
    flat = a.ravel()
    return float(np.einsum("i,i->", flat, flat))


def _write_blocks(out, block):
    """Write ``block(rows)`` over ``out[rows]`` for each row block of
    ``out`` and return ``out``; one block's value is alive at a time."""
    for rows in _row_blocks(out):
        out[rows] = block(rows)
    return out


def _replace_blocks(x, block):
    """Write ``block(rows)``, a new block, over ``x[rows]`` for each row
    block of ``x``; returns ``max |new - old|`` over the pass."""
    tops = []
    for rows in _row_blocks(x):
        new = block(rows)
        d = new - x[rows]
        tops.append(float(np.max(np.abs(d, out=d))))
        x[rows] = new
        del new, d  # not held while the next block is made
    return max(tops)
