"""Lyapunov function of the coupled dynamics and its decrease audit.

For payoff vectors ``F`` (constraint-discounted, playing population) and
``G`` (constraint values, pricing population) the candidate function is

    V(x, mu) = sum_ij x_i * A_rho(F_j - F_i) + sum_kl mu_k * A_phi(G_l - G_k)

where ``A_rho`` is the antiderivative of the revision protocol's rate from
zero, which every ``Protocol`` carries and ``validate_protocol`` checks
against the rate.  ``V`` is nonnegative everywhere and vanishes exactly on
states where no revision opportunity exists.

``V`` has one formula, ``_value_batch``, on stacks of states: ``integrate``
records it, ``monotonicity_audit`` evaluates it over the same row chunks
(``dynamics._payoff_chunks``) and ``lyapunov_value`` on a one-row stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, dynamics
from .core import ConfigurationError, DualState, GameSpec, PrimalState
from .dynamics import Protocol, Trajectory


def _gap_integral_rowsums(protocol: Protocol, payoffs: np.ndarray) -> np.ndarray:
    """``Gamma[s, i] = sum_j`` of the rate's integral from 0 to ``payoffs[s, j] - payoffs[s, i]``.

    ``payoffs`` is an ``(S, m)`` stack; the protocol's antiderivative gives
    every entry at once.
    """
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

    The one formula for ``V`` in the package: the recorded trajectory, the
    decrease audit and ``lyapunov_value`` (on one-row stacks) all call it.
    """
    primal = np.einsum("si,si->s", X, _gap_integral_rowsums(primal_protocol, F))
    return primal + np.einsum("sk,sk->s", M, _gap_integral_rowsums(dual_protocol, G))


def _value_raw(
    game: GameSpec,
    primal_protocol: Protocol,
    dual_protocol: Protocol,
    xv: np.ndarray,
    muv: np.ndarray,
) -> float:
    """``V`` at one validated state pair: ``_value_batch`` on one-row stacks."""
    P = core._joint_payoff(game, np.concatenate((xv, muv)))[None, :]
    n = game.n
    V = _value_batch(primal_protocol, dual_protocol, xv[None, :], muv[None, :], P[:, :n], P[:, n:])
    return float(V[0])


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
    with ``Gamma`` the two populations' gap-integral row sums,

        dV/dt = Gamma_P . xdot + xdot . Df_mu(x) xdot + Gamma_Phi . mudot.

    The middle term is nonpositive for stable games, the outer two are
    never positive, which is what makes ``V`` decrease.
    """
    xv = core._check_primal(game, x)
    muv = core._check_dual(game, mu)
    n = game.n
    z_hat = np.concatenate(((1.0,), xv, muv))
    kernel = dynamics._field_kernel(game, primal_protocol)
    zdot = kernel.field(z_hat, np.empty(z_hat.size))[1:]
    if dual_protocol is not primal_protocol:
        zdot[n:] = dynamics._joint_field(game, dual_protocol, z_hat[1:])[n:]
    # the kernel's payoffs at z
    gamma_p = _gap_integral_rowsums(primal_protocol, kernel.F[None])[0]
    gamma_phi = _gap_integral_rowsums(dual_protocol, kernel.G[None])[0]
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
    """Evaluate ``V`` at every recorded state and audit its decrease.

    ``V`` comes from ``_value_batch`` over the same row chunks and payoff
    stacks that fill ``Trajectory.lyapunov``, so with the protocol
    ``integrate`` used for both populations the values equal the recorded
    ones bitwise; with other protocols the audit evaluates their ``V``.  A
    transition counts as a violation when ``V`` rises by more than
    ``audit_tol``, which must be finite and nonnegative.
    """
    if not 0.0 <= audit_tol < np.inf:
        raise ConfigurationError(f"audit tolerance must be in [0, inf), got {audit_tol!r}")
    n = game.n
    values = np.empty(len(trajectory))
    for sl, X, M, P in dynamics._payoff_chunks(game, trajectory.primal, trajectory.dual):
        values[sl] = _value_batch(primal_protocol, dual_protocol, X, M, P[:, :n], P[:, n:])
    diffs = np.diff(values)
    return LyapunovAudit(
        values=values,
        max_increase=float(diffs.max()) if diffs.size else 0.0,
        violation_steps=tuple(int(i) for i in np.flatnonzero(diffs > audit_tol)),
        nonnegativity_ok=bool(np.all(values >= -1e-12)),
    )
