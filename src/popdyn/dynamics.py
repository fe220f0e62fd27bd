"""Pairwise-comparison dynamics for both populations of a constrained game.

Each strategy ``i`` gains mass from every strategy ``j`` at rate
``x_j * rho(F_i - F_j)`` and loses it symmetrically, where ``rho`` is the
revision protocol and ``F`` the relevant payoff vector: the
constraint-discounted payoff for the playing population and the constraint
values for the pricing population.  The ``integrate`` routine advances both
populations together with a fixed-step scheme.  Its step loop records only
the states and the two field norms; the diagnostics downstream layers need
(potential, constraint values, Lyapunov value) are filled after the loop in
one batched pass over the recorded states.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import core
from .core import ConfigurationError, DualState, GameSpec, PrimalState

logger = logging.getLogger(__name__)

# a repair (negativity clip or mass rescale) larger than this is reported
REPAIR_WARN = 1e-6
# mass drift below this is left alone to keep untouched coordinates bitwise stable
REPAIR_DRIFT = 1e-12
# elements of the largest gap tensor per chunk of the diagnostics pass
DIAGNOSTICS_CHUNK = 1 << 16


class IntegrationDivergedError(RuntimeError):
    """Raised when a trajectory leaves the representable range.

    Carries the failing step index in ``step``.
    """

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"trajectory diverged at step {step}")


@dataclass(frozen=True, eq=False)
class Protocol:
    """Revision protocol: a rate function of the payoff gap.

    ``value`` must map arrays elementwise, vanish for gaps <= 0, and be
    positive for gaps > 0.  ``antiderivative`` is the exact integral of
    ``value`` from 0; leave it ``None`` to have the Lyapunov layer fall back
    to adaptive quadrature.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    antiderivative: Optional[Callable[[np.ndarray], np.ndarray]] = None


def _smith_rate(gap):
    return np.maximum(gap, 0.0)


def _smith_rate_integral(gap):
    r = np.maximum(gap, 0.0)
    return 0.5 * r * r


_SMITH = Protocol("smith", _smith_rate, _smith_rate_integral)


def smith_protocol() -> Protocol:
    """Protocol with rate ``max(gap, 0)`` and antiderivative ``max(gap, 0)^2 / 2``."""
    return _SMITH


PROTOCOLS = {"smith": smith_protocol}


def validate_protocol(
    protocol: Protocol,
    lo: float = -10.0,
    hi: float = 10.0,
    points: int = 10001,
    slope_bound: float = 1e6,
) -> None:
    """Numerically check the protocol conditions on a grid over ``[lo, hi]``.

    Verifies sign behavior (zero rate for nonpositive gaps, positive rate for
    positive gaps), bounded difference quotients, and, when an antiderivative
    is provided, that it vanishes on nonpositive gaps and is nondecreasing.
    Raises ``ConfigurationError`` on the first failure.
    """
    if not (lo < 0.0 < hi):
        raise ConfigurationError("validation grid must straddle zero")
    grid = np.linspace(lo, hi, points)
    vals = np.asarray(protocol.value(grid), dtype=float)
    if vals.shape != grid.shape or not np.all(np.isfinite(vals)):
        raise ConfigurationError(f"protocol {protocol.name!r}: rate is not a finite elementwise map")
    if np.any(vals[grid <= 0] != 0.0):
        raise ConfigurationError(f"protocol {protocol.name!r}: rate must vanish for gaps <= 0")
    if np.any(vals[grid > 0] <= 0.0):
        raise ConfigurationError(f"protocol {protocol.name!r}: rate must be positive for gaps > 0")
    quotients = np.abs(np.diff(vals) / np.diff(grid))
    if quotients.max() > slope_bound:
        raise ConfigurationError(
            f"protocol {protocol.name!r}: difference quotient {quotients.max():.3g} "
            f"exceeds bound {slope_bound:.3g}"
        )
    if protocol.antiderivative is not None:
        anti = np.asarray(protocol.antiderivative(grid), dtype=float)
        if anti.shape != grid.shape or not np.all(np.isfinite(anti)):
            raise ConfigurationError(
                f"protocol {protocol.name!r}: antiderivative is not a finite elementwise map"
            )
        if np.any(anti[grid <= 0] != 0.0):
            raise ConfigurationError(
                f"protocol {protocol.name!r}: antiderivative must vanish for gaps <= 0"
            )
        if np.any(np.diff(anti) < 0.0):
            raise ConfigurationError(
                f"protocol {protocol.name!r}: antiderivative must be nondecreasing"
            )


@dataclass(frozen=True, eq=False)
class SimParams:
    """Fixed-step integration parameters.

    Convergence is declared once the sum of the two field infinity norms
    stays below ``convergence_tol`` for ``convergence_window`` consecutive
    recorded steps.
    """

    horizon: float
    step: float = 0.01
    integrator: str = "euler"
    convergence_tol: float = 1e-6
    convergence_window: int = 100

    def __post_init__(self):
        if not self.step > 0:
            raise ConfigurationError("step must be positive")
        if not self.horizon >= self.step:
            raise ConfigurationError("horizon must be at least one step")
        if self.integrator not in ("euler", "rk4"):
            raise ConfigurationError(f"unknown integrator {self.integrator!r}")
        if not self.convergence_tol > 0:
            raise ConfigurationError("convergence tolerance must be positive")
        if self.convergence_window < 1:
            raise ConfigurationError("convergence window must be at least 1")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded simulation output, one row per recorded time.

    ``primal`` has shape ``(T, n)`` and ``dual`` shape ``(T, q + 1)``.
    ``potential`` is NaN throughout when the game carries no potential.
    ``primal_field_norm``/``dual_field_norm`` hold the infinity norms of the
    two fields evaluated at each recorded state.
    """

    times: np.ndarray
    primal: np.ndarray
    dual: np.ndarray
    potential: np.ndarray
    constraints: np.ndarray
    lyapunov: np.ndarray
    primal_field_norm: np.ndarray
    dual_field_norm: np.ndarray
    converged: bool
    primal_mass: float
    dual_mass: float

    def __len__(self) -> int:
        return self.times.size

    def state_at(self, index: int) -> tuple[PrimalState, DualState]:
        return (
            PrimalState(self.primal[index], self.primal_mass),
            DualState(self.dual[index], self.dual_mass),
        )

    @property
    def final_primal(self) -> PrimalState:
        return PrimalState(self.primal[-1], self.primal_mass)

    @property
    def final_dual(self) -> DualState:
        return DualState(self.dual[-1], self.dual_mass)


def _exchange_field(protocol: Protocol, shares: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
    """Net mass flow per strategy under pairwise comparison.

    ``flow[i, j] = shares_j * rho(payoff_i - payoff_j)`` is the gross inflow
    from ``j`` to ``i``; the net field is the row sum of ``flow - flow.T``.
    That difference is exactly antisymmetric in floating point, so the field
    sums to zero to rounding of the final reduction, and a strategy with zero
    share only ever gains.
    """
    gaps = payoffs[:, None] - payoffs[None, :]
    flow = np.asarray(protocol.value(gaps), dtype=float) * shares[None, :]
    net = flow - flow.T
    return net.sum(axis=1)


def _primal_field_raw(game: GameSpec, protocol: Protocol, xv: np.ndarray, muv: np.ndarray) -> np.ndarray:
    return _exchange_field(protocol, xv, core._payoff_raw(game, xv, muv))


def _dual_field_raw(game: GameSpec, protocol: Protocol, xv: np.ndarray, muv: np.ndarray) -> np.ndarray:
    return _exchange_field(protocol, muv, core._constraint_values_raw(game, xv))


def primal_field(game: GameSpec, protocol: Protocol, x: PrimalState, mu: DualState) -> np.ndarray:
    """Time derivative of the playing population's state."""
    return _primal_field_raw(game, protocol, core._check_primal(game, x), core._check_dual(game, mu))


def dual_field(game: GameSpec, protocol: Protocol, x: PrimalState, mu: DualState) -> np.ndarray:
    """Time derivative of the pricing population's state."""
    return _dual_field_raw(game, protocol, core._check_primal(game, x), core._check_dual(game, mu))


def sample_simplex(n: int, mass: float, seed: int) -> PrimalState:
    """Uniform random state on the mass-``mass`` simplex in ``n`` strategies."""
    if n < 1:
        raise ConfigurationError("need at least one coordinate")
    if not mass > 0:
        raise ConfigurationError("mass must be positive")
    rng = np.random.default_rng(seed)
    return PrimalState(core._uniform_simplex(rng, n, mass), mass)


def _repair(vec: np.ndarray, mass: float) -> tuple[Optional[np.ndarray], float]:
    """Clip negatives, then rescale onto the mass simplex if drifted.

    Returns the repaired vector and the size of the repair (clipped mass or
    mass drift, whichever is larger).  The vector is ``None`` when clipping
    leaves no mass at all, which only happens when the step blew the whole
    state out of the orthant.
    """
    size = 0.0
    neg = vec < 0.0
    if neg.any():
        size = float(-vec[neg].sum())
        vec = np.where(neg, 0.0, vec)
    total = float(vec.sum())
    if total <= 0.0:
        return None, size
    drift = abs(total - mass)
    if drift > REPAIR_DRIFT:
        vec = vec * (mass / total)
        size = max(size, drift)
    return vec, size


def _diagnostics(game: GameSpec, protocol: Protocol, primal: np.ndarray, dual: np.ndarray):
    """Potential, constraint values and ``V`` at every recorded state.

    Runs over row chunks so the ``(rows, n, n)`` gap tensor stays near
    ``DIAGNOSTICS_CHUNK`` elements however long the trajectory is.
    """
    # break the import cycle: lyapunov builds on this module's protocols
    from .lyapunov import _value_batch

    T = primal.shape[0]
    pot = np.full(T, np.nan)
    cons = np.empty((T, game.q + 1))
    lyap = np.empty(T)
    rows = max(1, DIAGNOSTICS_CHUNK // max(game.n, game.q + 1) ** 2)
    for lo in range(0, T, rows):
        sl = slice(lo, lo + rows)
        X, M = primal[sl], dual[sl]
        if game.potential is not None:
            pot[sl] = game.potential.value_batch(X)
        cons[sl] = core._constraint_values_batch(game, X)
        F = core._payoff_batch(game, X, M)
        lyap[sl] = _value_batch(protocol, protocol, X, M, F, cons[sl])
    return pot, cons, lyap


def integrate(
    game: GameSpec,
    protocol: Protocol,
    x0: PrimalState,
    mu0: DualState,
    params: SimParams,
) -> Trajectory:
    """Advance both populations from ``(x0, mu0)`` and record every step.

    Uses forward Euler or classic RK4 at fixed step ``params.step``; recorded
    times are ``k * step`` exactly as computed by that product.  After each
    step, tiny negativity/mass violations introduced by the scheme are
    repaired (clip, then rescale); steps whose repair exceeds ``REPAIR_WARN``
    are counted and reported once per call through the module logger.
    Integration stops early once the convergence criterion in ``params``
    holds, and raises ``IntegrationDivergedError`` if the state leaves the
    representable range.

    The step loop evaluates only the two fields, their norms and the update.
    Potential, constraint values and ``V`` are filled after the loop in one
    batched pass over the recorded states; they agree with the scalar
    ``core.potential``, ``core.constraint_values`` and
    ``lyapunov.lyapunov_value`` to rounding, not bitwise.
    """
    xv = np.array(core._check_primal(game, x0))
    muv = np.array(core._check_dual(game, mu0))
    h = params.step
    nsteps = int(np.floor(params.horizon / h + 1e-9))
    T = nsteps + 1

    times = np.empty(T)
    primal = np.empty((T, game.n))
    dual = np.empty((T, game.q + 1))
    xnorm = np.empty(T)
    munorm = np.empty(T)

    repaired = 0
    largest = 0.0
    quiet = 0
    converged = False
    recorded = 0

    for k in range(T):
        fx = _primal_field_raw(game, protocol, xv, muv)
        fmu = _dual_field_raw(game, protocol, xv, muv)
        if not (np.isfinite(fx).all() and np.isfinite(fmu).all()):
            raise IntegrationDivergedError(k)

        times[k] = k * h
        primal[k] = xv
        dual[k] = muv
        xnorm[k] = fx_norm = np.abs(fx).max()
        munorm[k] = fmu_norm = np.abs(fmu).max()
        recorded = k + 1

        if fx_norm + fmu_norm < params.convergence_tol:
            quiet += 1
            if quiet >= params.convergence_window:
                converged = True
                break
        else:
            quiet = 0
        if k == nsteps:
            break

        if params.integrator == "euler":
            xv_new = xv + h * fx
            muv_new = muv + h * fmu
        else:
            xv_new, muv_new = _rk4_step(game, protocol, xv, muv, h, fx, fmu)
        if not (np.isfinite(xv_new).all() and np.isfinite(muv_new).all()):
            raise IntegrationDivergedError(k + 1)
        xv, x_size = _repair(xv_new, game.primal_mass)
        muv, mu_size = _repair(muv_new, game.dual_mass)
        if xv is None or muv is None:
            raise IntegrationDivergedError(k + 1)
        size = max(x_size, mu_size)
        if size > REPAIR_WARN:
            repaired += 1
            largest = max(largest, size)

    if repaired:
        logger.warning(
            "simplex repair exceeded %g on %d of %d steps (largest %.3g)",
            REPAIR_WARN,
            repaired,
            recorded - 1,
            largest,
        )

    sl = slice(0, recorded)
    pot, cons, lyap = _diagnostics(game, protocol, primal[sl], dual[sl])
    return Trajectory(
        times=times[sl],
        primal=primal[sl],
        dual=dual[sl],
        potential=pot,
        constraints=cons,
        lyapunov=lyap,
        primal_field_norm=xnorm[sl],
        dual_field_norm=munorm[sl],
        converged=converged,
        primal_mass=game.primal_mass,
        dual_mass=game.dual_mass,
    )


def _rk4_step(game, protocol, xv, muv, h, k1x, k1m):
    k2x = _primal_field_raw(game, protocol, xv + 0.5 * h * k1x, muv + 0.5 * h * k1m)
    k2m = _dual_field_raw(game, protocol, xv + 0.5 * h * k1x, muv + 0.5 * h * k1m)
    k3x = _primal_field_raw(game, protocol, xv + 0.5 * h * k2x, muv + 0.5 * h * k2m)
    k3m = _dual_field_raw(game, protocol, xv + 0.5 * h * k2x, muv + 0.5 * h * k2m)
    k4x = _primal_field_raw(game, protocol, xv + h * k3x, muv + h * k3m)
    k4m = _dual_field_raw(game, protocol, xv + h * k3x, muv + h * k3m)
    xv_new = xv + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    muv_new = muv + (h / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
    return xv_new, muv_new
