"""Reference implementations that the tests compare the package against.

The solvers only evaluate the weight form of the penalty
(``penalty.update_weights``, ``penalty.weighted_log_prox``,
``penalty.update_lambda_bar``); the equivalence results of the model are
what make that enough.  The direct forms of the penalty and the t-SVD
toolkit below state those results in code: the tests check the weight
form and the prox against them.  :func:`palm_complete` and
:func:`palm_decompose` state the model itself, one whole PALM sweep at a
time, and price each step on the augmented Lagrangian, whose rises
:func:`descent_rises` counts.  The band-loop forms of the error scores
are the references of ``tenrec.metrics``' one-reduction scores.  None of
it is part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tenrec.algebra import (_require_3way, fold_mode_pair, mode_pairs, t_product,
                            unfold_mode_pair)
from tenrec.metrics import _as_bands
from tenrec.penalty import _validate_params, mlcp, weighted_log_prox
from tenrec.simulate import gen_mask, make_rng

# A singular tube/value counts as nonzero when it exceeds this fraction of
# the largest singular value of the whole tensor.
RANK_RTOL = 1e-8


# -- Instances ---------------------------------------------------------------


def cp_tensor(shape, rank, seed):
    """A 3-way tensor of CP rank at most ``rank``, low rank in every
    mode-pair unfolding.

    The sum of ``rank`` outer products of standard normal factor
    columns, the factors drawn mode by mode from ``make_rng(seed)``.
    """
    rng = make_rng(seed)
    factors = [rng.standard_normal((n, rank)) for n in shape]
    return np.einsum("ir,jr,kr->ijk", *factors)


def cp_completion_instance(seed):
    """A9's completion instance: a 30 x 30 x 20 CP-rank-3 tensor at unit
    peak, low rank in every mode-pair unfolding, 30 % observed.

    Returns (ground truth, mask, observed with zeros off the mask).
    """
    gt = cp_tensor((30, 30, 20), 3, seed)
    gt = gt / np.max(np.abs(gt))
    mask = gen_mask(gt.shape, 0.3, seed).mask
    return gt, mask, np.where(mask, gt, 0.0)


# -- t-SVD toolkit -----------------------------------------------------------


def dft_mode3(z):
    """Unnormalised DFT along the third mode (tube direction)."""
    return np.fft.fft(_require_3way(z), axis=2)


def full_spectrum_sv(z):
    """Singular values of all ``I3`` Fourier slices, ``R x I3``: an SVD of
    every slice of the full DFT, mirror slices included, so it does not
    share the package's half-spectrum route."""
    return np.linalg.svd(np.moveaxis(dft_mode3(z), 2, 0), compute_uv=False).T


def mirror_columns(half, i3):
    """The ``I3`` full-spectrum columns of an ``R x (I3 // 2 + 1)`` matrix:
    slice ``k`` takes the column of ``min(k, I3 - k)``, its conjugate
    mirror's."""
    k = np.arange(i3)
    return np.asarray(half)[:, np.minimum(k, i3 - k)]


def idft_mode3(zbar):
    """Inverse of :func:`dft_mode3` (scaled by 1/I3); output is complex."""
    return np.fft.ifft(_require_3way(zbar), axis=2)


def conj_transpose(a):
    """Transpose each frontal slice and reverse the order of slices 2..I3."""
    a = _require_3way(a)
    out = np.empty((a.shape[1], a.shape[0], a.shape[2]), dtype=a.dtype)
    out[:, :, 0] = a[:, :, 0].conj().T
    if a.shape[2] > 1:
        out[:, :, 1:] = a[:, :, :0:-1].conj().transpose(1, 0, 2)
    return out


def identity_tensor(n, tubes):
    """Identity for the tube-wise product: eye in slice 0, zeros elsewhere."""
    out = np.zeros((n, n, tubes))
    out[:, :, 0] = np.eye(n)
    return out


@dataclass
class TubalFactorization:
    """Orthogonal-diagonal-orthogonal factorization under the tube product.

    ``u`` is I1 x I1 x I3, ``s`` is I1 x I2 x I3 with diagonal frontal
    slices in both domains, ``v`` is I2 x I2 x I3, and the original array
    is ``u * s * conj_transpose(v)``.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def compose(self):
        """Multiply the factors back together."""
        return t_product(t_product(self.u, self.s), conj_transpose(self.v))


def t_svd(z):
    """Factor a real 3-way array as ``u * s * v^H``.

    Each half-spectrum slice of the real FFT along the third mode is
    factored by a complex SVD with singular values sorted non-increasing;
    ``irfft`` returns the factors to real space, which fills in the
    conjugate-mirror slices without factoring them again.

    Raises
    ------
    ValueError
        If the input is not 3-way or contains non-finite entries.
    """
    z = np.asarray(z, dtype=float)
    z = _require_3way(z)
    if not np.all(np.isfinite(z)):
        raise ValueError("t_svd input must be finite")
    i1, i2, i3 = z.shape
    ubar, s, vhbar = np.linalg.svd(np.moveaxis(np.fft.rfft(z, axis=2), 2, 0))
    sbar = np.zeros((s.shape[0], i1, i2))
    diag = np.arange(s.shape[1])
    sbar[:, diag, diag] = s
    vbar = vhbar.conj().transpose(0, 2, 1)
    return TubalFactorization(
        *(np.moveaxis(np.fft.irfft(f, n=i3, axis=0), 0, 2) for f in (ubar, sbar, vbar))
    )


def tubal_rank(z, rtol=None):
    """Number of nonzero singular tubes of a 3-way array."""
    sigma = full_spectrum_sv(z)
    thresh = (rtol if rtol is not None else RANK_RTOL) * sigma.max(initial=0.0)
    return int(np.count_nonzero(sigma.max(axis=1) > thresh))


def multi_rank(z, rtol=None):
    """Vector of Fourier-slice matrix ranks, one entry per tube index."""
    sigma = full_spectrum_sv(z)
    thresh = (rtol if rtol is not None else RANK_RTOL) * sigma.max(initial=0.0)
    return (sigma > thresh).sum(axis=0).astype(int)


def tnn(z):
    """Sum of singular values over all Fourier-domain frontal slices."""
    return float(full_spectrum_sv(z).sum())


def n_tubal_rank(t, rtol=None):
    """Tubal rank of every mode-pair unfolding, in lexicographic pair order."""
    t = np.asarray(t)
    if t.ndim < 2:
        raise ValueError("n_tubal_rank needs at least a 2-way array")
    return [
        tubal_rank(unfold_mode_pair(t, m1, m2), rtol=rtol)
        for m1, m2 in mode_pairs(t.ndim)
    ]


# -- Direct forms of the penalty ---------------------------------------------


def mlcp_tensor(z, lam_bar, gamma, epsilon):
    """Sum of the capped log penalty over all entries with per-entry lam."""
    z = np.asarray(z, dtype=float)
    lam_bar = np.asarray(lam_bar, dtype=float)
    if z.shape != lam_bar.shape:
        raise ValueError(
            f"value and weight-target shapes differ: {z.shape} vs {lam_bar.shape}"
        )
    return float(np.sum(mlcp(z, lam_bar, gamma, epsilon)))


def mlcp_weight_minimizer(z, lam, gamma, epsilon):
    """Minimiser of ``w*log(|z|/eps + 1) + (gamma/2)*(w - lam)**2`` over w >= 0."""
    _validate_params(lam, gamma, epsilon)
    w = np.maximum(lam - np.log1p(np.abs(np.asarray(z, dtype=float)) / epsilon) / gamma, 0.0)
    if w.ndim == 0:
        return float(w)
    return w


def log_weighted_norm(z, w, epsilon):
    """Weighted log norm of Fourier-slice singular values.

    ``sum_{j,i} w[j, i] * log(sigma_j(slice i)/eps + 1)`` with the singular
    values of each Fourier-domain frontal slice sorted non-increasing.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    sigma = full_spectrum_sv(z)
    w = np.asarray(w, dtype=float)
    if w.shape != sigma.shape:
        raise ValueError(f"weight shape {w.shape} does not match {sigma.shape}")
    return float(np.sum(w * np.log1p(sigma / epsilon)))


def lgamma_norm(z, lam_bar, gamma, epsilon):
    """Weighted singular-value capped-log norm.

    Evaluates ``min_W { log_weighted_norm(z, W, eps) +
    (gamma/2)*||W - lam_bar||_F^2 }`` through the closed-form minimiser,
    one decoupled weight per Fourier-slice singular value.
    """
    _validate_params(lam_bar, gamma, epsilon)
    sigma = full_spectrum_sv(z)
    lam_bar = np.asarray(lam_bar, dtype=float)
    if lam_bar.shape != sigma.shape:
        raise ValueError(f"target shape {lam_bar.shape} does not match {sigma.shape}")
    t = np.log1p(sigma / epsilon)
    w = np.maximum(lam_bar - t / gamma, 0.0)
    return float(np.sum(w * t + 0.5 * gamma * (w - lam_bar) ** 2))


def prox_lgamma_norm(y, lam_bar, gamma, rho, epsilon, strict=False):
    """One alternating step on ``(rho/2)*||L - Y||_F^2 + lgamma_norm(L, lam_bar)``.

    Shrinks the Fourier-slice singular values of ``Y`` with weights
    ``lam_bar`` (the global minimiser in ``L`` only with ``strict=True``,
    see :func:`weighted_log_prox`), then re-evaluates the closed-form
    weights at the shrunk values.  ``lam_bar`` is ``R x I3``, as
    :func:`lgamma_norm` takes it, with equal columns on conjugate-mirror
    slices: the prox takes its half-spectrum columns.

    Returns
    -------
    (l, w)
        The shrunk tensor and the R x I3 weight matrix.
    """
    _validate_params(lam_bar, gamma, epsilon)
    lam_bar = np.asarray(lam_bar, dtype=float)
    i3 = lam_bar.shape[1]
    if not np.array_equal(mirror_columns(lam_bar, i3), lam_bar):
        raise ValueError("lam_bar differs between conjugate-mirror slices")
    l, sigma_new, _, _ = weighted_log_prox(y, lam_bar[:, :i3 // 2 + 1], rho, epsilon,
                                           strict=strict)
    w = np.maximum(lam_bar - np.log1p(mirror_columns(sigma_new, i3) / epsilon) / gamma, 0.0)
    return l, w


# -- The model, one PALM sweep at a time --------------------------------------
#
# A transcription of the two solvers' sweeps from the model's update
# formulas, for the tests to hold the solvers against, sweep by sweep.
# Of tenrec it reads only the mode-pair unfoldings and SolverConfig's
# pair weights, robust-PCA weights and scalars: every Fourier slice of the
# full spectrum is factored by its own SVD, with no half spectrum, warm
# start, Gram route or width rule.  A change to the model (a new weight
# rule, a new sparse-weight rule, a new step) edits these functions in the
# same diff as the solver.
#
# Each sweep also prices its steps on the augmented Lagrangian, so the
# tests can check PALM's sufficient decrease (Bolte, Sabach & Teboulle
# 2014) on the model rather than on the solver.

# A sweep rises when the Lagrangian after its primal steps exceeds the one
# at its start by more than DESCENT_RTOL relative plus RISE_ATOL; a step
# rises when the Lagrangian after it plus its proximal term exceeds the one
# before it by more than STEP_RTOL relative plus RISE_ATOL.
DESCENT_RTOL = 1e-8
STEP_RTOL = 1e-14
RISE_ATOL = 1e-12


@dataclass
class PalmSweep:
    """One sweep of the model.

    ``tensors`` is its iterate (``{"Z": z}`` or ``{"L": l, "E": e, "N":
    n}``).  ``start`` is the augmented Lagrangian at the sweep's start, and
    ``steps`` lists its primal steps in order as ``(name, Lagrangian after
    the step, the step's proximal term)``: per pair ``"<pair>.w"``,
    ``"<pair>.m"`` and ``"<pair>.lam"``, then ``"z"``, or ``"l"``, ``"e"``
    and ``"n"``.  Both are taken at the multipliers and penalties of the
    sweep's start.  ``lagrangian`` is the Lagrangian after the ascent at the
    sweep's penalties, as the solvers' trace reports it.
    """

    tensors: dict
    start: float
    steps: list
    lagrangian: float


def descent_rises(sweeps):
    """The rises of a reference run: ``(sweeps that rose, names of the steps
    that rose)``, by the rules stated above DESCENT_RTOL."""
    risen_sweeps, risen_steps = 0, []
    for sweep in sweeps:
        before = sweep.start
        for name, after, prox in sweep.steps:
            if after + prox > before * (1 + STEP_RTOL) + RISE_ATOL:
                risen_steps.append(name)
            before = after
        risen_sweeps += before > sweep.start * (1 + DESCENT_RTOL) + RISE_ATOL
    return risen_sweeps, risen_steps


def palm_complete(observed, mask, cfg, sweeps, overshoot=None):
    """``sweeps`` PALM sweeps of the completion model, whatever ``cfg.tol``
    says; returns each sweep as a :class:`PalmSweep` of iterate ``{"Z": z}``.
    ``overshoot`` breaks one kind of step on purpose (:func:`_palm_overshoot`).

    The observed entries stay fixed to the data; the unobserved ones
    minimise the pairs' beta-weighted coupling terms plus the proximal term
    ``(rho/2)*||z - z_prev||^2``.  The observation constraint adds nothing
    to the Lagrangian at a feasible z.
    """
    z = np.where(mask, observed, 0.0)
    pairs = _palm_pairs(z, cfg)
    mu, rho = cfg.mu0, cfg.rho0

    def lagrangian():
        return _palm_lagrangian(pairs, z, mu, cfg)

    out = []
    for _ in range(sweeps):
        start = lagrangian()
        steps = [(name, lagrangian(), prox)
                 for name, prox in _palm_pair_steps(pairs, z, mu, rho, cfg, overshoot)]
        pull, weight = _palm_pull(pairs, mu, z.shape)
        z_prev, z = z, np.where(mask, observed, (rho * z + pull) / (rho + weight))
        z = _palm_overshoot(overshoot, "z", z, z_prev)
        steps.append(("z", lagrangian(), _palm_prox_term(rho, z, z_prev)))
        for p in pairs:
            p["q"] = p["q"] + mu * (unfold_mode_pair(z, *p["pair"]) - p["m"])
        out.append(PalmSweep({"Z": z}, start, steps, lagrangian()))
        mu, rho = mu * cfg.growth, rho * cfg.growth
    return out


def palm_decompose(observed, cfg, sweeps, overshoot=None):
    """``sweeps`` PALM sweeps of the robust-PCA model ``T = L + E + N``,
    whatever ``cfg.tol`` says; returns each sweep as a :class:`PalmSweep`
    of iterate ``{"L": l, "E": e, "N": n}``.  ``overshoot`` breaks one kind
    of step on purpose (:func:`_palm_overshoot`).

    After the pair steps, L, E and N each minimise the Lagrangian plus
    ``(rho/2)*||. - prev||^2`` in turn: L a weighted average, E a soft
    threshold at ``tau1/(ptau + rho)``, N a ridge step with weight
    ``2*tau2``.  Then the pairs' multipliers and the residual multiplier F
    ascend, and mu, rho and the residual penalty ``ptau`` grow.  The data
    terms of the Lagrangian are ``tau1*||E||_1 + tau2*||N||^2 +
    (ptau/2)*||T - L - E - N + F/ptau||^2``.
    """
    t = np.asarray(observed, dtype=float)
    tau1, tau2 = cfg.resolve_tau(t.shape)
    ptau = cfg.penalty_tau
    l, e, n, f = t.copy(), np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
    pairs = _palm_pairs(l, cfg)
    mu, rho = cfg.mu0, cfg.rho0

    def lagrangian():
        return (_palm_lagrangian(pairs, l, mu, cfg) + tau1 * np.sum(np.abs(e))
                + tau2 * np.sum(n**2) + 0.5 * ptau * np.sum((t - l - e - n + f / ptau) ** 2))

    out = []
    for _ in range(sweeps):
        start = lagrangian()
        steps = [(name, lagrangian(), prox)
                 for name, prox in _palm_pair_steps(pairs, l, mu, rho, cfg, overshoot)]
        pull, weight = _palm_pull(pairs, mu, l.shape)
        l_prev, l = l, (ptau * (t - e - n) + f + rho * l + pull) / (ptau + rho + weight)
        l = _palm_overshoot(overshoot, "l", l, l_prev)
        steps.append(("l", lagrangian(), _palm_prox_term(rho, l, l_prev)))
        arg = (ptau * (t - l - n) + f + rho * e) / (ptau + rho)
        e_prev, e = e, np.sign(arg) * np.maximum(np.abs(arg) - tau1 / (ptau + rho), 0.0)
        e = _palm_overshoot(overshoot, "e", e, e_prev)
        steps.append(("e", lagrangian(), _palm_prox_term(rho, e, e_prev)))
        n_prev, n = n, (ptau * (t - l - e) + f + rho * n) / (2.0 * tau2 + ptau + rho)
        n = _palm_overshoot(overshoot, "n", n, n_prev)
        steps.append(("n", lagrangian(), _palm_prox_term(rho, n, n_prev)))
        for p in pairs:
            p["q"] = p["q"] + mu * (unfold_mode_pair(l, *p["pair"]) - p["m"])
        f = f + ptau * (t - l - e - n)
        out.append(PalmSweep({"L": l, "E": e, "N": n}, start, steps, lagrangian()))
        mu, rho, ptau = mu * cfg.growth, rho * cfg.growth, ptau * cfg.growth
    return out


def _palm_pairs(x, cfg):
    """Each coupled pair's variables at the start: the surrogate M is the
    unfolding of ``x``, the multiplier Q is zero, the weights w and their
    targets lam are one, and sigma holds M's singular values, one R x I3
    column per Fourier slice."""
    pairs = []
    for pair, beta in cfg.pair_weights(x.ndim):
        m = unfold_mode_pair(x, *pair)
        sigma = _palm_sigma(m)
        pairs.append({"pair": pair, "beta": beta, "m": m, "q": np.zeros_like(m),
                      "w": np.ones_like(sigma), "lam": np.ones_like(sigma), "sigma": sigma})
    return pairs


def _palm_sigma(m):
    """The singular values of every Fourier slice of ``m``, one R x I3
    column per slice."""
    return np.stack([np.linalg.svd(s, compute_uv=False)
                     for s in np.moveaxis(dft_mode3(m), 2, 0)], axis=1)


def _palm_overshoot(overshoot, kind, new, old):
    """A step's result: ``new``, or, where ``overshoot`` is ``(kind,
    factor)`` of this kind of step, ``old + factor*(new - old)``.  A
    quadratic step taken twice as far is back at its starting objective, so
    a factor above 2 raises it: the tests check that :func:`descent_rises`
    sees such rises."""
    if overshoot is None or overshoot[0] != kind:
        return new
    return old + overshoot[1] * (new - old)


def _palm_pair_steps(pairs, x, mu, rho, cfg, overshoot=None):
    """Every pair's weight, surrogate and weight-target steps, at the
    estimate ``x`` of the sweep's start.  Yields, once each step is taken,
    its name and its proximal term: ``beta*rho/2*||dw||^2`` and
    ``beta*rho/2*||dlam||^2`` over the whole spectrum, and PALM's
    ``beta*(rho1 - mu)/2*||dM||^2`` for the surrogate."""
    gamma, epsilon = cfg.gamma, cfg.epsilon
    rho1 = 1.1 * mu
    for p in pairs:
        beta, label = p["beta"], "".join(str(mode + 1) for mode in p["pair"])
        w, m, lam = p["w"], p["m"], p["lam"]
        t = np.log1p(p["sigma"] / epsilon)
        p["w"] = np.maximum((gamma * lam + rho * w - t) / (gamma + rho), 0.0)
        p["w"] = _palm_overshoot(overshoot, "w", p["w"], w)
        yield f"{label}.w", _palm_prox_term(beta * rho, p["w"], w)
        arg = m + (mu * unfold_mode_pair(x, *p["pair"]) + p["q"] - mu * m) / rho1
        m_new, p["sigma"] = _palm_prox(arg, p["w"], rho1, epsilon, cfg.strict_prox)
        p["m"] = _palm_overshoot(overshoot, "m", m_new, m)
        if p["m"] is not m_new:
            p["sigma"] = _palm_sigma(p["m"])
        yield f"{label}.m", _palm_prox_term(beta * (rho1 - mu), p["m"], m)
        p["lam"] = (gamma * p["w"] + rho * lam) / (gamma + rho)
        p["lam"] = _palm_overshoot(overshoot, "lam", p["lam"], lam)
        yield f"{label}.lam", _palm_prox_term(beta * rho, p["lam"], lam)


def _palm_pull(pairs, mu, shape):
    """The pairs' pull on the data step, ``(sum beta*fold(mu*M - Q), sum
    beta*mu)``."""
    pull = sum(p["beta"] * fold_mode_pair(mu * p["m"] - p["q"], *p["pair"], shape)
               for p in pairs)
    return pull, sum(p["beta"] * mu for p in pairs)


def _palm_lagrangian(pairs, x, mu, cfg):
    """The pairs' part of the augmented Lagrangian at the estimate ``x``:
    per pair, beta * (the weighted log term and the target tether over the
    whole spectrum, and ``(mu/2)*||unfold(x) - M + Q/mu||^2``)."""
    return sum(p["beta"] * (np.sum(p["w"] * np.log1p(p["sigma"] / cfg.epsilon))
                            + 0.5 * cfg.gamma * np.sum((p["w"] - p["lam"]) ** 2)
                            + 0.5 * mu * np.sum((unfold_mode_pair(x, *p["pair"]) - p["m"]
                                                 + p["q"] / mu) ** 2))
               for p in pairs)


def _palm_prox_term(scale, new, old):
    """A step's proximal term ``(scale/2)*||new - old||^2``."""
    return 0.5 * scale * np.sum((new - old) ** 2)


def _palm_prox(arg, w, rho1, epsilon, strict):
    """The surrogate step on ``(rho1/2)*||M - arg||^2 + sum w*log(sigma(M)/eps
    + 1)``: each Fourier slice's singular values shrunk at quadratic scale
    ``rho1/I3``, the spatial quadratic being 1/I3 of the Fourier one;
    returns M and its values (R x I3)."""
    i3 = arg.shape[2]
    slices, sigma = np.empty(arg.shape, dtype=complex), np.empty(w.shape)
    for k, a in enumerate(np.moveaxis(dft_mode3(arg), 2, 0)):
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        sigma[:, k] = _palm_shrink(s, w[:, k], rho1 / i3, epsilon, strict)
        slices[:, :, k] = (u * sigma[:, k]) @ vh
    return idft_mode3(slices).real, sigma


def _palm_shrink(s, w, scale, epsilon, strict):
    """Shrink values ``s`` under ``(scale/2)*(x - s)**2 + w*log(x/eps + 1)``
    over ``x >= 0``: the larger stationary point above the threshold
    ``2*sqrt(w/scale) - eps``, else 0.  The strict rule, the global
    minimiser, keeps that point only where its objective is not above
    zero's."""
    above = s > 2.0 * np.sqrt(w / scale) - epsilon
    root = np.sqrt(np.where(above, (s + epsilon) ** 2 - 4.0 * w / scale, 0.0))
    x = np.where(above, np.maximum(0.5 * (s - epsilon + root), 0.0), 0.0)
    if strict:
        kept = 0.5 * scale * (x - s) ** 2 + w * np.log1p(x / epsilon) <= 0.5 * scale * s**2
        x = np.where(kept, x, 0.0)
    return x


# -- Error scores, one band at a time ------------------------------------------


def loop_rel_error(x, ref):
    """``||x - ref|| / max(||ref||, 1e-300)`` by NumPy's Frobenius norm."""
    xb, rb = _as_bands(x, ref)
    return float(np.linalg.norm(xb - rb)) / max(float(np.linalg.norm(rb)), 1e-300)


def loop_psnr(x, ref):
    """Mean over bands of 10*log10(peak^2 / MSE) of the unscaled arrays at the
    reference's peak max|ref|, one band at a time; +inf as soon as a band has
    zero error."""
    xb, rb = (np.reshape(a, (ref.shape[0], ref.shape[1], -1)) for a in (x, ref))
    peak = np.max(np.abs(rb))
    values = []
    for b in range(xb.shape[2]):
        mse = float(np.mean((xb[:, :, b] - rb[:, :, b]) ** 2))
        if mse == 0.0:
            return float("inf")
        values.append(10.0 * np.log10(peak**2 / mse))
    return float(np.mean(values))


def loop_ergas(x, ref):
    """``100 * sqrt(mean_b((RMSE_b / mean_b)^2))``, one band at a time."""
    xb, rb = _as_bands(x, ref)
    terms = []
    for b in range(xb.shape[2]):
        band_mean = float(np.mean(rb[:, :, b]))
        if band_mean == 0.0:
            raise ValueError(f"reference band {b} has zero mean; ERGAS undefined")
        rmse = float(np.sqrt(np.mean((xb[:, :, b] - rb[:, :, b]) ** 2)))
        terms.append((rmse / band_mean) ** 2)
    return float(100.0 * np.sqrt(np.mean(terms)))
