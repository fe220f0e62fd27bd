"""Pairwise-comparison dynamics for both populations of a constrained game.

Each strategy ``i`` gains mass from every strategy ``j`` at rate
``x_j * rho(F_i - F_j)`` and loses it symmetrically, where ``rho`` is the
revision protocol and ``F`` the relevant payoff vector: the
constraint-discounted payoff for the playing population and the constraint
values for the pricing population.  Both populations follow the same
exchange rule, so one kernel evaluates them together on the joint state
``z = (x, mu)`` of length ``n + q + 1``: one payoff vector ``(F, G)`` from
the game's precomputed payoff operator (``core._joint_payoff``), one gap
matrix whose cross-population entries a block mask sets to exact zeros, and
one net flow.  No mass crosses between the populations, and each keeps
its own mass.  The per-population fields are slices of that kernel.

``integrate`` advances the joint state with a fixed-step scheme.  Its step
loop records only the states and the two field norms, which come from one
segmented maximum over the two blocks; after each update, one segmented
minimum and one segmented sum decide whether a block needs the simplex
repair.  The diagnostics downstream layers need (potential, constraint
values, Lyapunov value) are filled after the loop in one batched pass over
the recorded states, through the same payoff operator.
"""

from __future__ import annotations

import logging
import math
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
# elements of the largest gap tensor per chunk of the diagnostics pass and the decrease audit
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


PROTOCOLS: dict[str, Callable[[], Protocol]] = {}


def register_protocol(name: str, factory: Callable[[], Protocol]) -> None:
    """Check ``factory()`` with ``validate_protocol``, then add ``factory`` to ``PROTOCOLS``.

    Validation runs here, once per registration, so callers that look a
    protocol up in ``PROTOCOLS`` need not repeat it.  An invalid protocol
    raises ``ConfigurationError`` and is not added.
    """
    validate_protocol(factory())
    PROTOCOLS[name] = factory


register_protocol("smith", smith_protocol)


@dataclass(frozen=True, eq=False)
class SimParams:
    """Fixed-step integration parameters.

    ``horizon`` must be at least one ``step`` and ``horizon / step`` finite.
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
        # also rejects an infinite horizon or step
        if not math.isfinite(self.horizon / self.step):
            raise ConfigurationError(
                f"horizon / step = {self.horizon:g} / {self.step:g} is not a finite step count"
            )
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


def _joint_field(game: GameSpec, protocol: Protocol, z: np.ndarray) -> np.ndarray:
    """Fields of both populations at the joint state ``z = (x, mu)``.

    ``P = (F(x, mu), G(x))`` stacks the two payoff vectors, evaluated by
    the game's payoff operator ``core._joint_payoff``, and
    ``flow[i, j] = z_j * rho(P_i - P_j)`` is the gross inflow from ``j`` to
    ``i``.  Gaps that pair a strategy with a price are masked to exact zeros
    by ``game._block_mask`` before the protocol sees them, so mass never
    crosses between the populations.  The net field is the row sum of
    ``flow - flow.T``; that difference is exactly antisymmetric in floating
    point, so each block sums to zero to rounding of the final reduction,
    and a strategy with zero share only ever gains.
    """
    return _exchange(game, protocol, z, core._joint_payoff(game, z))


def _exchange(game: GameSpec, protocol: Protocol, z: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
    """Net fields of both populations at ``z`` for known joint payoffs."""
    mask = game._block_mask
    # gaps[i, j] = payoffs[i] - payoffs[j] within each population, exact zeros across
    gaps = np.subtract(payoffs[:, None], payoffs, out=np.zeros(mask.shape), where=mask)
    flow = np.asarray(protocol.value(gaps), dtype=float) * z
    return (flow - flow.T).sum(axis=1)


def _primal_field_raw(game: GameSpec, protocol: Protocol, xv: np.ndarray, muv: np.ndarray) -> np.ndarray:
    return _joint_field(game, protocol, np.concatenate((xv, muv)))[: game.n]


def _dual_field_raw(game: GameSpec, protocol: Protocol, xv: np.ndarray, muv: np.ndarray) -> np.ndarray:
    return _joint_field(game, protocol, np.concatenate((xv, muv)))[game.n :]


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


def _payoff_chunks(game: GameSpec, primal: np.ndarray, dual: np.ndarray):
    """Yield ``(rows, X, M, P)`` per row chunk: its slice, states and joint payoffs.

    One ``core._joint_payoff_stack`` call per chunk; the chunks keep the
    ``(rows, n, n)`` gap tensor of ``V`` near ``DIAGNOSTICS_CHUNK`` elements.
    """
    rows = max(1, DIAGNOSTICS_CHUNK // max(game.n, game.q + 1) ** 2)
    for lo in range(0, primal.shape[0], rows):
        sl = slice(lo, lo + rows)
        X, M = primal[sl], dual[sl]
        yield sl, X, M, core._joint_payoff_stack(game, np.concatenate((X, M), axis=1))


def _diagnostics(game: GameSpec, protocol: Protocol, primal: np.ndarray, dual: np.ndarray):
    """Potential, constraint values and ``V`` at every recorded state.

    Each chunk of ``_payoff_chunks`` gives ``V`` and, as the G block of its
    payoffs, the constraint values; ``lyapunov.monotonicity_audit`` walks
    the same chunks for ``V`` alone.
    """
    # break the import cycle: lyapunov builds on this module's protocols
    from .lyapunov import _value_batch

    T = primal.shape[0]
    n = game.n
    pot = np.full(T, np.nan)
    cons = np.empty((T, game.q + 1))
    lyap = np.empty(T)
    for sl, X, M, P in _payoff_chunks(game, primal, dual):
        if game.potential is not None:
            pot[sl] = game.potential.value_batch(X)
        cons[sl] = P[:, n:]
        lyap[sl] = _value_batch(protocol, protocol, X, M, P[:, :n], P[:, n:])
    return pot, cons, lyap


def integrate(
    game: GameSpec,
    protocol: Protocol,
    x0: PrimalState,
    mu0: DualState,
    params: SimParams,
) -> Trajectory:
    """Advance both populations from ``(x0, mu0)`` and record every step.

    The loop steps the joint state ``z = (x, mu)`` of length ``n + q + 1``
    with forward Euler or classic RK4 at fixed step ``params.step``; each
    field evaluation is one call of the joint kernel, whose block mask keeps
    the two populations' exchanges apart.  Recorded times are ``k * step``
    exactly as computed by that product.  Both field norms come from one
    segmented maximum over the two blocks, and their finiteness is the
    divergence guard before a state is recorded.

    After each update one segmented minimum and one segmented sum check
    the two blocks.  A block that stayed nonnegative and kept its mass to
    ``REPAIR_DRIFT`` is taken as is; otherwise the new state is checked
    for finiteness and each block is repaired (clip negatives, then
    rescale).  Steps whose repair exceeds ``REPAIR_WARN`` are counted and
    reported once per call through the module logger.  Integration stops
    early once the convergence criterion in ``params`` holds, and raises
    ``IntegrationDivergedError`` if the state leaves the representable
    range: at step ``k`` for a non-finite field at recorded state ``k``,
    at step ``k + 1`` for a non-finite update from it.

    Potential, constraint values and ``V`` are filled after the loop in one
    batched pass over the recorded states, the latter two through the step
    kernel's payoff operator; they agree with the scalar ``core.potential``,
    ``core.constraint_values`` and ``lyapunov.lyapunov_value`` to rounding,
    not bitwise.
    """
    n = game.n
    z = np.concatenate((core._check_primal(game, x0), core._check_dual(game, mu0)))
    h = params.step
    nsteps = int(np.floor(params.horizon / h + 1e-9))
    T = nsteps + 1
    euler = params.integrator == "euler"
    tol = params.convergence_tol
    window = params.convergence_window
    blocks = game._block_starts
    primal_mass = game.primal_mass
    dual_mass = game.dual_mass

    try:
        times = np.empty(T)
        primal = np.empty((T, n))
        dual = np.empty((T, game.q + 1))
        xnorm = np.empty(T)
        munorm = np.empty(T)
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(f"cannot hold {T:.3g} recorded states: {exc}") from None

    repaired = 0
    largest = 0.0
    quiet = 0
    converged = False
    recorded = 0

    for k in range(T):
        fz = _joint_field(game, protocol, z)
        # the maximum propagates NaN, so finite norms mean a finite field
        fx_norm, fmu_norm = np.maximum.reduceat(np.abs(fz), blocks).tolist()
        if not (math.isfinite(fx_norm) and math.isfinite(fmu_norm)):
            raise IntegrationDivergedError(k)

        times[k] = k * h
        primal[k] = z[:n]
        dual[k] = z[n:]
        xnorm[k] = fx_norm
        munorm[k] = fmu_norm
        recorded = k + 1

        if fx_norm + fmu_norm < tol:
            quiet += 1
            if quiet >= window:
                converged = True
                break
        else:
            quiet = 0
        if k == nsteps:
            break

        z_new = z + h * fz if euler else _rk4_step(game, protocol, z, h, fz)
        # fast path: no negative share and no mass drift in either block,
        # which also rules out inf and NaN, so the state needs no repair
        x_low, mu_low = np.minimum.reduceat(z_new, blocks).tolist()
        if x_low >= 0.0 and mu_low >= 0.0:
            x_total, mu_total = np.add.reduceat(z_new, blocks).tolist()
            if (
                abs(x_total - primal_mass) <= REPAIR_DRIFT
                and abs(mu_total - dual_mass) <= REPAIR_DRIFT
            ):
                z = z_new
                continue
        if not np.isfinite(z_new).all():
            raise IntegrationDivergedError(k + 1)
        xv, x_size = _repair(z_new[:n], primal_mass)
        muv, mu_size = _repair(z_new[n:], dual_mass)
        if xv is None or muv is None:
            raise IntegrationDivergedError(k + 1)
        z = np.concatenate((xv, muv))
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
        primal_mass=primal_mass,
        dual_mass=dual_mass,
    )


def _rk4_step(game, protocol, z, h, k1):
    k2 = _joint_field(game, protocol, z + 0.5 * h * k1)
    k3 = _joint_field(game, protocol, z + 0.5 * h * k2)
    k4 = _joint_field(game, protocol, z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
