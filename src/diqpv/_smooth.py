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

Stopping rule: each Newton loop ends when the Newton decrement squared is
below 1e-12 (1e-16 in polish) or its step cap is reached; the total
iteration budget is capped at 1e5.
"""

from __future__ import annotations

import numpy as np

_TOTAL_CAP = 100_000
_T_MAX = 1e13


class SmoothSolveError(RuntimeError):
    pass


def _newton_loop(x, slacks_fn, k, a, steps, tol, budget):
    """Maximize sum_j k_j log s_j(x); returns (x, iterations_used)."""
    used = 0
    for _ in range(steps):
        if used >= budget:
            break
        s = slacks_fn(x)
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
        base = float(k @ np.log(s))
        while alpha > 1e-18:
            s_new = slacks_fn(x + alpha * d)
            if (s_new > 0).all():
                val = float(k @ np.log(s_new))
                if val >= base + 0.25 * alpha * decrement:
                    break
                # Near the optimum the model step can only tread water;
                # accept it as long as it does not actually lose ground.
                if alpha < 1e-12 and val >= base - 1e-13 * max(1.0, abs(base)):
                    break
            alpha *= 0.5
        if alpha <= 1e-18:
            break
        x = x + alpha * d
        used += 1
    return x, used


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

    budget = _TOTAL_CAP
    t = 16.0
    while True:
        k = t * w + 1.0
        x, used = _newton_loop(x, slacks, k, a, steps=200, tol=1e-12, budget=budget)
        budget -= used
        if t >= _T_MAX or budget <= 0:
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

        def red_slacks(psi, base=b_off, mat=a_red):
            return base + mat @ psi

        psi = np.zeros(nullb.shape[1])
        psi, used = _newton_loop(
            psi, red_slacks, k_red, a_red, steps=100, tol=1e-16, budget=budget
        )
        x = x + nullb @ psi
    else:
        x, used = _newton_loop(
            x, slacks, w, a, steps=100, tol=1e-16, budget=budget
        )
    return x
