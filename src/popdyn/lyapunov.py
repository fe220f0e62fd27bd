"""Lyapunov function of the coupled dynamics and its decrease audit.

For payoff vectors ``F`` (constraint-discounted, playing population) and
``G`` (constraint values, pricing population) the candidate function is

    V(x, mu) = sum_ij x_i * A_rho(F_j - F_i) + sum_kl mu_k * A_phi(G_l - G_k)

where ``A_rho`` is the antiderivative of the revision protocol's rate from
zero.  ``V`` is nonnegative everywhere and vanishes exactly on states where
no revision opportunity exists.  Protocols that carry a closed-form
antiderivative use it; otherwise each entry falls back to adaptive Simpson
quadrature of the rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core, dynamics
from .core import DualState, GameSpec, PrimalState
from .dynamics import Protocol, Trajectory

QUADRATURE_TOL = 1e-10
_MAX_DEPTH = 48


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to reach its tolerance."""


def adaptive_simpson(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = QUADRATURE_TOL,
) -> float:
    """Integral of ``func`` over ``[lo, hi]`` by adaptive Simpson quadrature.

    Subdivides until the standard error estimate (difference between one and
    two Simpson panels, divided by 15) drops below the tolerance budget of
    the subinterval.  Raises ``QuadratureError`` if the recursion depth limit
    is reached before that happens.
    """
    if hi == lo:
        return 0.0
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    mid = 0.5 * (lo + hi)
    fa, fm, fb = func(lo), func(mid), func(hi)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    return sign * _simpson(func, lo, hi, fa, fm, fb, whole, tol, _MAX_DEPTH)


def _simpson(func, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm, frm = func(lm), func(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"no convergence on [{a:.6g}, {b:.6g}] (estimate error {abs(err) / 15.0:.3g})"
        )
    half = 0.5 * tol
    return _simpson(func, a, mid, fa, flm, fm, left, half, depth - 1) + _simpson(
        func, mid, b, fm, frm, fb, right, half, depth - 1
    )


def _scalar_rate(protocol: Protocol) -> Callable[[float], float]:
    return lambda t: float(protocol.value(np.asarray(t, dtype=float)))


def _gap_integral_matrix(protocol: Protocol, payoffs: np.ndarray) -> np.ndarray:
    """Matrix ``M[i, j] = integral of the rate from 0 to payoffs_j - payoffs_i``."""
    gaps = payoffs[None, :] - payoffs[:, None]
    if protocol.antiderivative is not None:
        return np.asarray(protocol.antiderivative(gaps), dtype=float)
    rate = _scalar_rate(protocol)
    out = np.empty_like(gaps)
    for i in range(gaps.shape[0]):
        for j in range(gaps.shape[1]):
            try:
                out[i, j] = adaptive_simpson(rate, 0.0, float(gaps[i, j]))
            except QuadratureError as exc:
                raise QuadratureError(
                    f"protocol {protocol.name!r}, payoff pair ({i}, {j}): {exc}"
                ) from exc
    return out


def _value_raw(
    game: GameSpec,
    primal_protocol: Protocol,
    dual_protocol: Protocol,
    xv: np.ndarray,
    muv: np.ndarray,
) -> float:
    z = np.concatenate((xv, muv))
    P = core._joint_payoff(game, z)
    if primal_protocol is dual_protocol and primal_protocol.antiderivative is not None:
        # one gap matrix for both populations: the masked cross-population
        # gaps are 0, and the antiderivative from 0 vanishes there
        gaps = dynamics._masked_gaps(game, P).T
        return float(z @ np.asarray(primal_protocol.antiderivative(gaps), dtype=float).sum(axis=1))
    gamma_p = _gap_integral_matrix(primal_protocol, P[: game.n]).sum(axis=1)
    gamma_phi = _gap_integral_matrix(dual_protocol, P[game.n :]).sum(axis=1)
    return float(xv @ gamma_p + muv @ gamma_phi)


def _gap_integral_rowsums(protocol: Protocol, payoffs: np.ndarray) -> np.ndarray:
    """Row sums of ``_gap_integral_matrix`` for each row of an ``(S, m)`` payoff stack."""
    if protocol.antiderivative is None:
        rows = [_gap_integral_matrix(protocol, row).sum(axis=1) for row in payoffs]
        return np.array(rows).reshape(payoffs.shape)
    gaps = payoffs[:, None, :] - payoffs[:, :, None]
    return np.asarray(protocol.antiderivative(gaps), dtype=float).sum(axis=2)


def _value_batch(
    primal_protocol: Protocol,
    dual_protocol: Protocol,
    X: np.ndarray,
    M: np.ndarray,
    F: np.ndarray,
    G: np.ndarray,
) -> np.ndarray:
    """``V`` for state stacks ``X``, ``M`` whose payoffs ``F`` and constraint values ``G`` are known.

    Agrees with ``_value_raw`` row by row to rounding; the summation order
    differs, so the last bits may too.
    """
    primal = np.einsum("si,si->s", X, _gap_integral_rowsums(primal_protocol, F))
    return primal + np.einsum("sk,sk->s", M, _gap_integral_rowsums(dual_protocol, G))


def lyapunov_value(
    game: GameSpec,
    primal_protocol: Protocol,
    dual_protocol: Protocol,
    x: PrimalState,
    mu: DualState,
) -> float:
    """Value of ``V`` at a state pair; zero exactly on equilibrium states."""
    return _value_raw(
        game,
        primal_protocol,
        dual_protocol,
        core._check_primal(game, x),
        core._check_dual(game, mu),
    )


def lyapunov_rate(
    game: GameSpec,
    primal_protocol: Protocol,
    dual_protocol: Protocol,
    x: PrimalState,
    mu: DualState,
) -> float:
    """Time derivative of ``V`` along the coupled dynamics.

    Assembled from the decomposition that drives the decrease argument:
    with ``Gamma`` the row sums of the two gap-integral matrices,

        dV/dt = Gamma_P . xdot + xdot . Df_mu(x) xdot + Gamma_Phi . mudot.

    The middle term is nonpositive for stable games, the outer two are
    never positive, which is what makes ``V`` decrease.
    """
    xv = core._check_primal(game, x)
    muv = core._check_dual(game, mu)
    n = game.n
    z = np.concatenate((xv, muv))
    P = core._joint_payoff(game, z)
    gamma_p = _gap_integral_matrix(primal_protocol, P[:n]).sum(axis=1)
    gamma_phi = _gap_integral_matrix(dual_protocol, P[n:]).sum(axis=1)
    zdot = dynamics._exchange(game, primal_protocol, z, P)
    if dual_protocol is not primal_protocol:
        zdot[n:] = dynamics._exchange(game, dual_protocol, z, P)[n:]
    xdot, mudot = zdot[:n], zdot[n:]
    jac = core._payoff_jacobian_raw(game, xv, muv)
    return float(gamma_p @ xdot + xdot @ jac @ xdot + gamma_phi @ mudot)


@dataclass(frozen=True, eq=False)
class LyapunovAudit:
    """Result of re-evaluating ``V`` along a recorded trajectory.

    ``violation_steps`` lists the indices ``i`` where the transition from
    recorded state ``i`` to ``i + 1`` increased ``V`` by more than the audit
    tolerance.
    """

    values: np.ndarray
    max_increase: float
    violation_steps: tuple
    nonnegativity_ok: bool

    @property
    def fraction_nonincreasing(self) -> float:
        transitions = self.values.size - 1
        if transitions <= 0:
            return 1.0
        return 1.0 - len(self.violation_steps) / transitions


def monotonicity_audit(
    game: GameSpec,
    primal_protocol: Protocol,
    dual_protocol: Protocol,
    trajectory: Trajectory,
    audit_tol: float = 1e-8,
) -> LyapunovAudit:
    """Recompute ``V`` at every recorded state and audit its decrease.

    The values are recomputed one state at a time with the scalar
    ``_value_raw`` rather than read back from the trajectory, whose ``V``
    comes from the batched pass in ``integrate``: the audit cross-checks the
    one-state and stack forms of the payoff operator and the recording.
    """
    T = len(trajectory)
    values = np.empty(T)
    for i in range(T):
        values[i] = _value_raw(
            game, primal_protocol, dual_protocol, trajectory.primal[i], trajectory.dual[i]
        )
    if T > 1:
        diffs = np.diff(values)
        max_increase = float(diffs.max())
        violations = tuple(int(i) for i in np.flatnonzero(diffs > audit_tol))
    else:
        max_increase = 0.0
        violations = ()
    nonneg = bool(np.all(values >= -1e-12))
    return LyapunovAudit(
        values=values,
        max_increase=max_increase,
        violation_steps=violations,
        nonnegativity_ok=nonneg,
    )
