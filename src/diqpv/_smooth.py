"""Damped-Newton log-barrier maximizer for sums of logs of affine forms.

Solves

    maximize  F(x) = sum_j w_j * log(a_j . x + b_j)
    subject to          a_j . x + b_j > 0   for every row j

with w_j >= 0 (rows with w_j = 0 are pure constraints).  Every term is a
log of an affine slack, so gradients and Hessians are exact and cheap:

    grad = sum_j k_j a_j / s_j,      hess = -sum_j k_j a_j a_j^T / s_j^2.

The central path uses k_j = t w_j + 1 with t increased geometrically; the
suboptimality after the last stage is at most (number of rows) / 1e13.  A
final polish step then switches to the plain objective: constraints whose
slack collapsed along the path are pinned as equalities (Newton in the
nullspace of their rows), interior optima get an unconstrained Newton
finish.  Either way the polish converges quadratically, so interior optima
are resolved to machine precision rather than barrier precision.

Stopping rule: each Newton loop (at most 200 steps per stage, 100 in
polish) ends at the first of three stops: the Newton decrement squared
falls below 1e-12 (1e-16 in polish), a step leaves x bitwise unchanged,
or the backtracking line search fails.  Each step is a deterministic
function of x, so a step that leaves x unchanged would repeat to the cap.

Line search: the full step alpha = min(1, 0.99 alpha_max) is tried alone.
If it fails, every shorter step alpha 2^-j above 1e-18 is evaluated in one
stacked product, and the first one that keeps every slack positive and
raises the objective by at least a quarter of its length times the
squared decrement is taken; if none does, the line search fails.  That
is the step a loop halving alpha one trial at a time would take, bit for
bit: halving is exact, the step candidates are
elementwise, np.matmul runs the same BLAS gemv per stacked candidate as
``a @ x`` does for one and the same dot as ``k @ log(s)`` (a gemm such as
``xs @ a.T`` rounds differently), and the accepted point's slacks and
objective carry into the next step unchanged.
"""

from __future__ import annotations

import numpy as np

_T_MAX = 1e13
# 2^-j for j = 1..59: alpha 2^-j > 1e-18 needs j <= 59 when alpha <= 1.
_HALVINGS = np.ldexp(1.0, -np.arange(1, 60))


class SmoothSolveError(RuntimeError):
    pass


def _newton_loop(x, a, b, k, steps, tol):
    """Maximize sum_j k_j log(a_j . x + b_j); returns (x, iterations_used)."""
    s = a @ x + b
    f = float(k @ np.log(s))
    used = 0
    for _ in range(steps):
        g = (k / s) @ a
        h = (a * (k / s**2)[:, None]).T @ a
        try:
            d = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(h, g, rcond=None)[0]
        decrement = float(g @ d)
        if not np.isfinite(decrement) or decrement <= 0:
            d = g / max(1.0, np.linalg.norm(g))
            decrement = float(g @ d)
            if decrement <= 0:
                break
        if decrement / 2 <= tol:
            break
        ad = a @ d
        shrink = ad < 0
        alpha_max = np.inf if not shrink.any() else float((-s[shrink] / ad[shrink]).min())
        alpha = min(1.0, 0.99 * alpha_max)
        if alpha <= 1e-18:
            break
        x_new = x + alpha * d
        s_new = a @ x_new + b
        f_new = float(k @ np.log(s_new)) if (s_new > 0).all() else None
        if f_new is None or not f_new >= f + 0.25 * alpha * decrement:
            shorter = _backtrack(x, d, a, b, k, f, alpha * _HALVINGS, decrement)
            if shorter is None:
                break
            x_new, s_new, f_new = shorter
        if np.array_equal(x_new, x):
            break
        x, s, f = x_new, s_new, f_new
        used += 1
    return x, used


def _backtrack(x, d, a, b, k, f, alphas, decrement):
    """(x, slacks, objective) at the first step length in alphas above
    1e-18 with positive slacks and sufficient increase, or None."""
    alphas = alphas[alphas > 1e-18]
    xs = x + alphas[:, None] * d
    ss = _stacked_slacks(a, b, xs)
    ok = np.flatnonzero((ss > 0).all(axis=1))
    fs = _stacked_objectives(k, ss[ok])
    hits = np.flatnonzero(fs >= f + 0.25 * alphas[ok] * decrement)
    if not hits.size:
        return None
    j = ok[hits[0]]
    return xs[j], ss[j], float(fs[hits[0]])


def _stacked_slacks(a, b, xs):
    """a @ x + b for each row x of xs, by one gemv per row."""
    return np.matmul(a, xs[:, :, None])[:, :, 0] + b


def _stacked_objectives(k, ss):
    """k @ log(s) for each row s of ss, by one dot per row."""
    return np.matmul(np.log(ss)[:, None, :], k[:, None])[:, 0, 0]


def maximize_log_affine(weights, a, b, x0):
    """Run the barrier path plus polish; returns the maximizer.

    weights, a, b describe the rows (see module docstring); x0 must be
    strictly feasible.
    """
    w = np.asarray(weights, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x0, dtype=np.float64).copy()
    if (w < 0).any():
        raise ValueError("row weights must be nonnegative")

    def slacks(v):
        return a @ v + b

    if (slacks(x) <= 0).any():
        raise SmoothSolveError("starting point is not strictly feasible")

    t = 16.0
    while True:
        k = t * w + 1.0
        x, _ = _newton_loop(x, a, b, k, steps=200, tol=1e-12)
        if t >= _T_MAX:
            break
        t = min(t * 20.0, _T_MAX)

    # Polish: drop the barrier.  Constraint rows whose slack collapsed along
    # the path are pinned as equalities (Newton in the nullspace of their
    # rows); everything else keeps weight w_j, so zero-weight rows still
    # guard the line search without entering the Newton model.
    s = slacks(x)
    scale = max(1.0, float(np.abs(b).max()))
    active = (w == 0) & (s < 1e-6 * scale)
    if active.any():
        a_act = a[active]
        # Project exactly onto the active facet before walking it.
        corr = a_act.T @ np.linalg.lstsq(a_act @ a_act.T, s[active], rcond=None)[0]
        x_f = x - corr
        if (slacks(x_f)[~active] <= 0).any():
            return x  # projection left the cone; the barrier point stands
        x = x_f
        _, sv, vt = np.linalg.svd(a_act, full_matrices=True)
        rank = int((sv > 1e-12 * max(1.0, sv[0] if sv.size else 1.0)).sum())
        nullb = vt[rank:].T
        if nullb.shape[1] == 0:
            return x
        keep = ~active
        a_red = a[keep] @ nullb
        k_red = w[keep]
        b_off = slacks(x)[keep]
        psi = np.zeros(nullb.shape[1])
        psi, _ = _newton_loop(psi, a_red, b_off, k_red, steps=100, tol=1e-16)
        x = x + nullb @ psi
    else:
        x, _ = _newton_loop(x, a, b, w, steps=100, tol=1e-16)
    return x
