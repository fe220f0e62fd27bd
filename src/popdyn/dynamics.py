"""Pairwise-comparison dynamics for both populations of a constrained game.

Each strategy ``i`` gains mass from every strategy ``j`` at rate
``x_j * rho(F_i - F_j)`` and loses it symmetrically, where ``rho`` is the
revision protocol and ``F`` the relevant payoff vector: the
constraint-discounted payoff for the playing population and the constraint
values for the pricing population.  Both populations follow the same
exchange rule, so one kernel evaluates them together, from BLAS products
alone, on the homogeneous joint state ``z_hat = (1, x, mu)`` of length
``n + q + 2``: one payoff vector ``(G, 0, F)`` from the game's precomputed
payoff operator (``core._payoff_kernel``), whose constant coordinate
carries the operator's constant terms, one gap matrix whose entries
pairing a strategy with a price, or the constant with anything, are exact
zeros, and the net flow, inflow minus outflow.  No mass crosses between
the populations, the constant's field is an exact zero, a share at zero
only gains, and each population keeps its mass to rounding (``integrate``
rescales a drift beyond ``REPAIR_DRIFT``).  The per-population fields are
slices of that kernel.

``_field_kernel`` binds the kernel once, to work arrays of its own, and
with it the forward-Euler step: ``integrate`` binds it once per call, so a
step is one Python call that allocates no array but the protocol's rates,
and runs that share a game share no buffer.  The one-shot evaluators
(``_joint_field``, the public fields, the positivity limit,
``lyapunov.lyapunov_rate``) take ``z = (x, mu)``, put the 1 in front and
bind a kernel for the one state.

``integrate`` advances the joint state with a fixed-step scheme in
speculative blocks whose guards are checked together, with array
operations over the block, keeping exactly the rows of a step-by-step
loop.  The flow keeps both populations on their simplexes, so an update
that takes a share negative is refused with the forward-Euler positivity
limit of the step.  The diagnostics downstream layers need (potential,
constraint values, Lyapunov value) are filled chunk by chunk, in batched
passes over the recorded states: after the loop, or as soon as their rows
are final for a caller that follows the rows as they are committed.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import core
from .core import ConfigurationError, DualState, GameSpec, PrimalState

# mass drift below this is left alone to keep untouched coordinates bitwise stable
REPAIR_DRIFT = 1e-12
# elements of the largest gap tensor per chunk of the diagnostics pass and the decrease audit
DIAGNOSTICS_CHUNK = 1 << 16
# longest speculative block of steps ``integrate`` takes before checking their guards
BLOCK_MAX = 256


class IntegrationDivergedError(RuntimeError):
    """Raised when a trajectory leaves the representable range.

    Carries the failing step index in ``step``.
    """

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"trajectory diverged at step {step}")


@dataclass(frozen=True, eq=False)
class Protocol:
    """Revision protocol: a rate function of the payoff gap and its integral.

    ``value`` must map arrays elementwise, vanish for gaps <= 0, and be
    positive for gaps > 0.  The step loop may pass it the same work array
    on every call: ``value`` may overwrite that array and return it, but
    must not keep it.  ``antiderivative`` is the exact integral of
    ``value`` from 0, elementwise too; the Lyapunov function ``V`` is built
    from it alone, and ``validate_protocol`` checks it against the rate.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    antiderivative: Callable[[np.ndarray], np.ndarray]


# a 0-d array operand: a ufunc call with a Python scalar costs about 1.5 times
# one with two arrays, and the result is the same
_ZERO = np.zeros(())


def _smith_rate(gap):
    return np.maximum(gap, _ZERO)


def _smith_rate_integral(gap):
    r = np.maximum(gap, _ZERO)
    return 0.5 * r * r


_SMITH = Protocol("smith", _smith_rate, _smith_rate_integral)


def smith_protocol() -> Protocol:
    """Protocol with rate ``max(gap, 0)`` and antiderivative ``max(gap, 0)^2 / 2``."""
    return _SMITH


# ``validate_protocol`` samples gaps at VALIDATION_POINTS even steps over
# [-VALIDATION_SPAN, VALIDATION_SPAN], 0 among them
VALIDATION_SPAN = 10.0
VALIDATION_POINTS = 10001
# bound on the rate's difference quotients between neighbouring grid points
SLOPE_BOUND = 1e6
# largest error of the antiderivative against the rate's integral, relative
# to the antiderivative at VALIDATION_SPAN
ANTIDERIVATIVE_RTOL = 1e-7
# the 4-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree 7
_GAUSS_NODES = np.array(
    [-0.861136311594052575, -0.339981043584856265, 0.339981043584856265, 0.861136311594052575]
)
_GAUSS_WEIGHTS = np.array(
    [0.347854845137453857, 0.652145154862546143, 0.652145154862546143, 0.347854845137453857]
)


def validate_protocol(protocol: Protocol) -> None:
    """Numerically check the protocol conditions on the validation grid.

    Verifies sign behavior (zero rate for nonpositive gaps, positive rate for
    positive gaps), difference quotients within ``SLOPE_BOUND``, and that the
    antiderivative is finite, vanishes on nonpositive gaps and, at every
    positive grid point ``g``, lies within ``ANTIDERIVATIVE_RTOL`` times its
    value at ``VALIDATION_SPAN`` of the rate's integral from 0 to ``g``.  The
    integral is the cumulative composite 4-point Gauss-Legendre rule over the
    grid's cells; they start at 0, so the kink every rate has there is a cell
    edge.  Raises ``ConfigurationError`` on the first failure.
    """
    grid = np.linspace(-VALIDATION_SPAN, VALIDATION_SPAN, VALIDATION_POINTS)
    # the rate may overwrite its argument, and the grid is read again
    vals = np.asarray(protocol.value(grid.copy()), dtype=float)
    if vals.shape != grid.shape or not np.all(np.isfinite(vals)):
        raise ConfigurationError(f"protocol {protocol.name!r}: rate is not a finite elementwise map")
    positive = grid > 0.0
    if np.any(vals[~positive] != 0.0):
        raise ConfigurationError(f"protocol {protocol.name!r}: rate must vanish for gaps <= 0")
    if np.any(vals[positive] <= 0.0):
        raise ConfigurationError(f"protocol {protocol.name!r}: rate must be positive for gaps > 0")
    quotients = np.abs(np.diff(vals) / np.diff(grid))
    if quotients.max() > SLOPE_BOUND:
        raise ConfigurationError(
            f"protocol {protocol.name!r}: difference quotient {quotients.max():.3g} "
            f"exceeds bound {SLOPE_BOUND:.3g}"
        )
    anti = np.asarray(protocol.antiderivative(grid), dtype=float)
    if anti.shape != grid.shape or not np.all(np.isfinite(anti)):
        raise ConfigurationError(
            f"protocol {protocol.name!r}: antiderivative is not a finite elementwise map"
        )
    if np.any(anti[~positive] != 0.0):
        raise ConfigurationError(
            f"protocol {protocol.name!r}: antiderivative must vanish for gaps <= 0"
        )
    edges = np.concatenate(((0.0,), grid[positive]))
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * _GAUSS_NODES
    integral = np.cumsum(half * (np.asarray(protocol.value(nodes), dtype=float) @ _GAUSS_WEIGHTS))
    error = np.abs(anti[positive] - integral).max()
    # written so that a NaN integral fails too
    if not error <= ANTIDERIVATIVE_RTOL * anti[-1]:
        raise ConfigurationError(
            f"protocol {protocol.name!r}: antiderivative is {error:.3g} off the rate's "
            f"integral, beyond {ANTIDERIVATIVE_RTOL:g} of its value {anti[-1]:.6g} "
            f"at gap {VALIDATION_SPAN:g}"
        )


@dataclass(frozen=True, eq=False)
class SimParams:
    """Fixed-step integration parameters.

    ``horizon`` must be at least one ``step`` and ``horizon / step`` finite.
    Convergence is declared once the sum of the two field infinity norms
    stays below ``convergence_tol`` (positive and finite) for
    ``convergence_window`` (an integer, at least 1) consecutive recorded
    steps.
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
        if not (self.convergence_tol > 0 and math.isfinite(self.convergence_tol)):
            raise ConfigurationError("convergence tolerance must be positive and finite")
        if not isinstance(self.convergence_window, (int, np.integer)):
            raise ConfigurationError(
                f"convergence window must be an integer, got {self.convergence_window!r}"
            )
        if self.convergence_window < 1:
            raise ConfigurationError("convergence window must be at least 1")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded simulation output, one row per recorded time.

    ``primal`` has shape ``(T, n)`` and ``dual`` shape ``(T, q + 1)``.
    ``potential`` is NaN throughout when the game carries no potential.
    ``primal_field_norm``/``dual_field_norm`` hold the infinity norms of the
    two fields evaluated at each recorded state.  ``integrate`` returns
    ``primal`` and ``dual`` as views into one state buffer and the two
    norms as views into one norm buffer.  ``protocol`` is the protocol
    ``integrate`` ran and recorded ``lyapunov`` with, set on the trajectory
    it returns; it is no parameter, so a trajectory built otherwise, or
    derived by ``dataclasses.replace``, has ``None``.
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
    protocol: Protocol | None = field(default=None, init=False)

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


class _FieldKernel(NamedTuple):
    """The joint field of one game and protocol, bound by ``_field_kernel``.

    ``out_rates``, ``F`` and ``G`` hold the out-rates and the two payoff
    vectors at the state of the last ``field`` or ``advance`` call.
    """

    field: Callable[[np.ndarray, np.ndarray], np.ndarray]
    advance: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    out_rates: np.ndarray
    F: np.ndarray
    G: np.ndarray


class _FieldEvaluated(Exception):
    """Raised by an RK4 ``advance`` whose stage after the first raised: the
    row's own field was evaluated, and the stage's exception is the cause."""


def _field_kernel(game: GameSpec, protocol: Protocol, h: float = 0.0) -> _FieldKernel:
    """Fields of both populations at the homogeneous joint state
    ``z_hat = (1, x, mu)``, bound once to work arrays of their own.

    ``field(z_hat, out)`` writes the field at ``z_hat`` into ``out`` and
    returns it: with ``R = rho(gaps)`` the rates of the payoff gaps
    ``P_i - P_j``,

        zdot_i = sum_j R_ij z_j - z_i sum_j R_ji,

    inflow minus outflow, from two matrix-vector products: ``R z`` and the
    column sums ``out_j = (1 R)_j`` (into ``out_rates``), the rate at which
    each unit of ``j``'s mass leaves it.  A share at zero only gains, as its
    outflow term is an exact zero.  Inflow and outflow are summed apart, so
    each block's field sums to zero to rounding, not exactly.
    ``advance(z_hat, f, out)`` is the forward-Euler step of length ``h``:
    it writes the field into ``f``, then ``z_hat + h f`` into ``out``, with
    the field's code inlined, so a step is one Python call.

    The gap matrix is one rank-4 product ``U^T V`` of two ``(4, N + 1)``
    row slices of one work array ``W``.  Split as ``(1, x, mu)``, ``U``'s
    rows are ``(0, 0, G)``, ``(0, F, 0)``, ``(0, 0, -1)``, ``(0, -1, 0)``
    and ``V``'s are ``(0, 0, 1)``, ``(0, 1, 0)``, ``(0, 0, G)``,
    ``(0, F, 0)``.  An entry within a population adds zeros to
    ``P_i - P_j``, so it is one rounding of the difference; an entry
    pairing a strategy with a price, or the constant with anything, adds
    zeros only, so it is an exact zero, its rate too (``rho(0) = 0``), and
    no mass crosses between the populations.  The field's entry 0 is then
    an exact zero, and every update keeps the constant exactly 1.  The
    payoff operator writes ``(G, 0, F)`` straight into the rows
    ``(0, 0, G)`` and ``(0, F, 0)``, which lie back to back in ``W``.

    A call allocates no array but the protocol's rates (and the fitness
    rule's value when it has no affine form), and no product is larger than
    ``(N + 1) x (N + 1)``.  The work arrays belong to the kernel, never to
    the game, so runs on one game share no buffer.
    """
    n = game.n
    size = n + game.q + 2
    W = np.zeros((6, size))
    W[0, n + 1 :] = W[1, 1 : n + 1] = 1.0
    W[4, n + 1 :] = W[5, 1 : n + 1] = -1.0
    # W[2] = (0, 0, G) and W[3] = (0, F, 0): G ends one row where the constant's 0 starts the next
    GF = W[2:4].reshape(2 * size)[n + 1 : n + 1 + size]
    payoff = core._payoff_kernel(game)
    gaps_dot, V = W[2:].T.dot, W[:4]
    gaps = np.empty((size, size))
    out_rates = np.empty(size)
    outflow = np.empty(size)
    # h as an array: a ufunc call with a Python scalar operand costs about 1.5
    # times one with two arrays, and the products are the same
    hv, hf = np.full(size, h), np.empty(size)
    ones_dot = np.ones(size).dot
    value = protocol.value
    add, dot, multiply, subtract = np.add, np.dot, np.multiply, np.subtract

    def field(z, out):
        payoff(z, GF)
        # the protocol may overwrite the gaps: the product rewrites them all
        rates = value(gaps_dot(V, gaps))
        ones_dot(rates, out_rates)
        dot(rates, z, out)
        return subtract(out, multiply(z, out_rates, outflow), out)

    def advance(z, f, out):
        payoff(z, GF)
        rates = value(gaps_dot(V, gaps))
        ones_dot(rates, out_rates)
        dot(rates, z, f)
        subtract(f, multiply(z, out_rates, outflow), f)
        return add(z, multiply(f, hv, hf), out)

    return _FieldKernel(field, advance, out_rates, W[3, 1 : n + 1], W[2, n + 1 :])


def _rk4_advance(field, h: float, size: int):
    """``advance(z, k1, out)`` writes the field at ``z`` into ``k1`` and the
    classic RK4 update from ``z`` into ``out``.

    An exception from the field at ``z`` propagates as it is; one from a
    later stage is raised as ``_FieldEvaluated`` from it, as ``k1`` is then
    the field at ``z``.
    """
    k2, k3, k4, zt = np.empty((4, size))
    add, multiply = np.add, np.multiply
    # the factors as arrays, as the field kernel binds h
    half, hv, sixth, two = np.array([[0.5 * h], [h], [h / 6.0], [2.0]]).repeat(size, axis=1)

    def advance(z, k1, out):
        field(z, k1)
        try:
            field(add(z, multiply(k1, half, out=zt), out=zt), k2)
            field(add(z, multiply(k2, half, out=zt), out=zt), k3)
            field(add(z, multiply(k3, hv, out=zt), out=zt), k4)
        except Exception as exc:
            raise _FieldEvaluated from exc
        # k1 + 2 k2 + 2 k3 + k4, summed left to right
        add(k1, multiply(k2, two, out=k2), out=k2)
        add(k2, multiply(k3, two, out=k3), out=k2)
        add(k2, k4, out=k2)
        return add(z, multiply(k2, sixth, out=k2), out=out)

    return advance


def _joint_field(game: GameSpec, protocol: Protocol, z: np.ndarray) -> np.ndarray:
    """Fields of both populations at ``z = (x, mu)``: the one-shot form of ``_field_kernel``."""
    z_hat = np.concatenate(((1.0,), z))
    return _field_kernel(game, protocol).field(z_hat, np.empty(z_hat.size))[1:]


def _positivity_limit(game: GameSpec, protocol: Protocol, z: np.ndarray) -> float:
    """``1 / max_j out_j`` at ``z = (x, mu)``, from the kernel's out-rates:
    no forward-Euler step from ``z`` up to this long takes a share negative.

    Out-rates that overflow give ``0.0``, without a warning.
    """
    kernel = _field_kernel(game, protocol)
    z_hat = np.concatenate(((1.0,), z))
    with np.errstate(all="ignore"):
        kernel.field(z_hat, np.empty(z_hat.size))
    top = float(kernel.out_rates.max())
    return 1.0 / top if top > 0.0 else math.inf


def primal_field(game: GameSpec, protocol: Protocol, x: PrimalState, mu: DualState) -> np.ndarray:
    """Time derivative of the playing population's state."""
    z = np.concatenate((core._check_primal(game, x), core._check_dual(game, mu)))
    return _joint_field(game, protocol, z)[: game.n]


def dual_field(game: GameSpec, protocol: Protocol, x: PrimalState, mu: DualState) -> np.ndarray:
    """Time derivative of the pricing population's state."""
    z = np.concatenate((core._check_primal(game, x), core._check_dual(game, mu)))
    return _joint_field(game, protocol, z)[game.n :]


def sample_simplex(n: int, mass: float, seed: int) -> PrimalState:
    """Uniform random state on the mass-``mass`` simplex in ``n`` strategies.

    ``seed`` must be a nonnegative integer.
    """
    if n < 1:
        raise ConfigurationError("need at least one coordinate")
    if not mass > 0:
        raise ConfigurationError("mass must be positive")
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    return PrimalState(core._uniform_simplex(rng, n, mass), mass)


def _chunk_rows(game: GameSpec) -> int:
    """Rows per chunk of ``_payoff_chunks``: the ``(rows, n, n)`` gap tensor of ``V`` near ``DIAGNOSTICS_CHUNK`` elements."""
    return max(1, DIAGNOSTICS_CHUNK // max(game.n, game.q + 1) ** 2)


def _payoff_chunks(game: GameSpec, primal: np.ndarray, dual: np.ndarray):
    """Yield ``(rows, X, M, P)`` per row chunk: its slice, states and joint payoffs.

    One ``core._joint_payoff_stack`` call per chunk of ``_chunk_rows`` rows.
    """
    rows = _chunk_rows(game)
    for lo in range(0, primal.shape[0], rows):
        sl = slice(lo, lo + rows)
        X, M = primal[sl], dual[sl]
        yield sl, X, M, core._joint_payoff_stack(game, np.concatenate((X, M), axis=1))


def _fill_diagnostics(game, protocol, primal, dual, pot, cons, lyap) -> None:
    """Write potential, constraint values and ``V`` at the states ``primal``, ``dual``.

    Each chunk of ``_payoff_chunks`` gives ``V`` and, as the G block of its
    payoffs, the constraint values; ``pot`` is NaN when the game carries no
    potential.  ``lyapunov.monotonicity_audit`` walks the same chunks for
    ``V`` alone, so over rows that start at a multiple of ``_chunk_rows``
    the two agree bitwise.
    """
    # break the import cycle: lyapunov builds on this module's protocols
    from .lyapunov import _value_batch

    n = game.n
    for sl, X, M, P in _payoff_chunks(game, primal, dual):
        pot[sl] = np.nan if game.potential is None else game.potential.value_batch(X)
        cons[sl] = P[:, n:]
        lyap[sl] = _value_batch(protocol, protocol, X, M, P[:, :n], P[:, n:])


def _record(rows: int, width: int) -> np.ndarray:
    """A ``(rows, width)`` float record in an anonymous mapping of its own, zeroed.

    The record is sized for the whole horizon.  numpy advises huge pages
    for arrays of 4 MiB and more, so a run that converges long before its
    horizon would keep whole 2 MiB pages of it resident; a mapping of its
    own keeps the pages written.  The arrays of the trajectory are views
    of it and keep it alive.  The mapping is shared, so a process forked
    from this one sees the rows written after the fork.
    """
    return np.ndarray((rows, width), dtype=float, buffer=mmap.mmap(-1, rows * width * 8))


def integrate(
    game: GameSpec,
    protocol: Protocol,
    x0: PrimalState,
    mu0: DualState,
    params: SimParams,
    *,
    _committed: Callable[[int, Trajectory], None] | None = None,
) -> Trajectory:
    """Advance both populations from ``(x0, mu0)`` and record every step.

    The loop steps the homogeneous joint state ``z_hat = (1, x, mu)``, one
    row of one state buffer per step, with forward Euler (the kernel's
    bound ``advance``) or classic RK4 (composed from its ``field``) at
    fixed step ``params.step``.  The constant is written in row 0 only: the
    field's entry 0 is an exact zero, so every update keeps it exactly 1.
    Recorded times are ``k * step`` exactly as computed by that product.

    Steps are taken in speculative blocks.  Inside a block a step is one
    call that evaluates the field at its row and writes the update as the
    next row; the guards of all the block's steps are then checked at
    once, and the block keeps exactly the rows a step-by-step loop would
    have produced.  A block is at most ``BLOCK_MAX`` steps long: its length
    doubles after each clean block, stops at the horizon and, once the
    field has been quiet for ``quiet`` steps, ends ``window - quiet`` steps
    on, where the streak would converge.

    The guards are array operations over the block: the two field norms
    of each row (from column 1 on, past the constant), the quiet streak
    each row ends, carried in from the last block, and whether each update
    is clean: both populations stayed nonnegative and kept their mass to
    ``REPAIR_DRIFT``.  The first row with an event ends the block: a
    non-finite norm, a streak that reaches ``window``, the horizon row, the
    row whose step raised, or an update that is not clean.  That row alone
    is checked in Python, in the order of the step-by-step loop.  A
    non-finite field norm at state ``k`` raises
    ``IntegrationDivergedError(k)``; otherwise the state is recorded, and
    convergence (the criterion in ``params``) or the horizon stops the run.
    An update that is not clean raises ``IntegrationDivergedError(k + 1)``
    when it is not finite, and ``ConfigurationError`` when it takes a share
    negative: the step is too long for the flow, and the message names
    ``k``, its time and the ``_positivity_limit`` at state ``k`` (for RK4 a
    guide, not a bound).  What is left is mass drift at rounding level:
    each drifted population is rescaled onto its simplex, the rows the
    block computed after it are discarded, and the next block starts there
    with the same length.

    The loop runs with numpy's floating-point warnings off: the guards above
    report every non-finite value, and discarded rows must not warn.  An
    exception from the field or the fitness at a speculative state ends the
    block there; it propagates only if every earlier row passed its checks
    without stopping, that is, only if a step-by-step loop would have
    reached that state, and is dropped with the discarded rows otherwise.
    An RK4 stage that raises after the row's own field counts that row as
    evaluated.

    Times, potential, constraint values and ``V`` are filled chunk by chunk
    of ``_payoff_chunks`` after the loop; the chunks and so the bits are
    the same when they are filled inside it (below).  Constraint values
    and ``V`` come through the step kernel's payoff operator; they agree
    with the scalar ``core.potential``, ``core.constraint_values`` and
    ``lyapunov.lyapunov_value`` to rounding, not bitwise.  Each record
    lives in a shared anonymous mapping (``_record``), and ``primal`` and
    ``dual`` are views past the constant column of the state buffer.
    ``_committed(rows, record)``, when given, has each whole chunk filled
    as soon as its rows are final, which they are once they lie below the
    start of the next block, and is called after it: every field of
    ``record``, a ``Trajectory`` over the whole horizon, is final in its
    first ``rows`` rows.  Without a caller to follow them the chunks are
    filled after the loop, since a fill between blocks slows the steps
    after it (on ``paper_rps`` at h = 0.001 the fill took about 80 ms per
    run inside the loop and 53 ms after it).
    """
    n = game.n
    h = params.step
    nsteps = int(np.floor(params.horizon / h + 1e-9))
    T = nsteps + 1
    tol = params.convergence_tol
    window = params.convergence_window
    # the two blocks of z_hat = (1, x, mu), past the constant
    blocks = np.array([1, n + 1])
    primal_mass = game.primal_mass
    dual_mass = game.dual_mass
    masses = np.array([primal_mass, dual_mass])

    try:
        # row k + 1 holds the update from row k, so the last step's has a row too
        states = _record(T + 1, n + game.q + 2)
        norms = _record(T, 2)
        times, pot, lyap = _record(3, T)
        cons = _record(T, game.q + 1)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        raise ConfigurationError(f"cannot hold {T:.3g} recorded states: {exc}") from None
    # the constant is written in row 0 only: every update keeps it exactly 1
    states[0, 0] = 1.0
    states[0, 1 : n + 1] = core._check_primal(game, x0)
    states[0, n + 1 :] = core._check_dual(game, mu0)
    fields = np.empty((min(T, BLOCK_MAX), states.shape[1]))
    kernel = _field_kernel(game, protocol, h)
    if params.integrator == "euler":
        advance = kernel.advance
    else:
        advance = _rk4_advance(kernel.field, h, states.shape[1])
    index = np.arange(fields.shape[0])

    def first(rows: int, converged: bool = False) -> Trajectory:
        traj = Trajectory(
            times=times[:rows],
            primal=states[:rows, 1 : n + 1],
            dual=states[:rows, n + 1 :],
            potential=pot[:rows],
            constraints=cons[:rows],
            lyapunov=lyap[:rows],
            primal_field_norm=norms[:rows, 0],
            dual_field_norm=norms[:rows, 1],
            converged=converged,
            primal_mass=primal_mass,
            dual_mass=dual_mass,
        )
        object.__setattr__(traj, "protocol", protocol)
        return traj

    # the diagnostics run with the caller's floating-point error handling
    caller_errstate = np.geterr()

    def fill(lo: int, hi: int) -> None:
        sl = slice(lo, hi)
        times[sl] = np.arange(lo, hi, dtype=float) * h
        with np.errstate(**caller_errstate):
            _fill_diagnostics(
                game, protocol, states[sl, 1 : n + 1], states[sl, n + 1 :], pot[sl], cons[sl], lyap[sl]
            )

    chunk = _chunk_rows(game)
    filled = 0
    record = None if _committed is None else first(T)

    quiet = 0
    converged = False
    recorded = 0
    start = 0
    size = 1

    with np.errstate(all="ignore"):
        while not recorded:
            K = min(size, T - start)
            if quiet:
                # the running quiet streak converges window - quiet steps on at the earliest
                K = min(K, window - quiet)
            evaluated = updated = K
            error = None
            z = states[start]
            try:
                for f, out in zip(fields[:K], states[start + 1 : start + 1 + K]):
                    z = advance(z, f, out)
            except Exception as exc:  # user code in the field; the scan decides if it propagates
                # the row whose step raised, from the offset of the update it was writing
                updated = (out.ctypes.data - states.ctypes.data) // states.strides[0] - start - 1
                if isinstance(exc, _FieldEvaluated):
                    error, evaluated = exc.__cause__, updated + 1
                else:
                    error, evaluated = exc, updated

            rows = norms[start : start + evaluated]
            # the maximum propagates NaN, so finite norms mean a finite field
            np.maximum.reduceat(np.abs(fields[:evaluated]), blocks, axis=1, out=rows)
            # no negative share and no mass drift in either block, which also
            # rules out inf and NaN: the update is taken as is
            new = states[start + 1 : start + 1 + updated]
            low = np.minimum.reduceat(new, blocks, axis=1)
            drift = np.abs(np.add.reduceat(new, blocks, axis=1) - masses)
            clean = ((low >= 0.0) & (drift <= REPAIR_DRIFT)).all(axis=1)
            # the quiet streak each row ends: the rows since the last loud one,
            # or, with none in the block, the carried streak and the rows so far
            sums = rows[:, 0] + rows[:, 1]
            at = index[:evaluated]
            streak = at - np.maximum.accumulate(np.where(sums < tol, -1 - quiet, at))
            events = (streak >= window) | ~np.isfinite(rows).all(axis=1)
            events[:updated] |= ~clean
            hits = np.flatnonzero(events)
            # the first row that ends the block: an event, the horizon row or
            # the row whose update raised
            j = int(min(hits[0] if hits.size else evaluated, nsteps - start, updated))
            if j == evaluated:
                if error is not None:
                    raise error  # the field at the row after the last raised
                quiet = int(streak[-1])
                start += evaluated
                size = min(2 * size, BLOCK_MAX)
                # the rows below start are final
                while _committed is not None and filled + chunk <= start:
                    fill(filled, filled + chunk)
                    filled += chunk
                    with np.errstate(**caller_errstate):
                        _committed(filled, record)
                continue

            # row j's checks in the order a step-by-step loop makes them
            quiet = int(streak[j - 1]) if j else quiet
            k = start + j
            fx_norm, fmu_norm = rows[j].tolist()
            if not (math.isfinite(fx_norm) and math.isfinite(fmu_norm)):
                raise IntegrationDivergedError(k)
            quiet = quiet + 1 if fx_norm + fmu_norm < tol else 0
            if quiet >= window or k == nsteps:
                converged = quiet >= window
                recorded = k + 1
                continue
            if j == updated:
                raise error  # the update from this row raised
            # what is left is an update that is not clean
            z_new = states[k + 1, 1:]
            if not np.isfinite(z_new).all():
                raise IntegrationDivergedError(k + 1)
            if z_new.min() < 0.0:
                limit = _positivity_limit(game, protocol, states[k, 1:])
                raise ConfigurationError(
                    f"step {h:g} is too long: the update from step {k} (t = {k * h:g}) "
                    "takes a share negative; the forward-Euler positivity limit "
                    f"1 / max_j out_j there is {limit:.3g}"
                    + ("" if params.integrator == "euler" else " (a guide for rk4)")
                )
            # mass drift at rounding level: rescale each drifted population
            for part, mass in ((z_new[:n], primal_mass), (z_new[n:], dual_mass)):
                total = float(part.sum())
                if abs(total - mass) > REPAIR_DRIFT:
                    part *= mass / total
            # the rows computed from the unscaled state are discarded
            start = k + 1

    fill(filled, recorded)
    return first(recorded, converged)
