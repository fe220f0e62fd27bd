"""Pairwise-comparison dynamics for both populations of a constrained game.

Each strategy ``i`` gains mass from every strategy ``j`` at rate
``x_j * rho(F_i - F_j)`` and loses it symmetrically, where ``rho`` is the
revision protocol and ``F`` the relevant payoff vector: the
constraint-discounted payoff for the playing population and the constraint
values for the pricing population.  Both populations follow the same
exchange rule, so one kernel evaluates them together on the homogeneous
joint state ``z_hat = (1, x, mu)`` of length ``N + 1 = n + q + 2``, from
one payoff vector ``P = (G, 0, F)`` of the game's precomputed payoff
operator (``core._payoff_kernel``), whose constant coordinate carries the
operator's constant terms.  No mass crosses between the populations, the
constant's field is an exact zero, a share at zero only gains, and each
population keeps its mass to rounding (``integrate`` rescales a drift
beyond ``REPAIR_DRIFT``).  The per-population fields are slices of that
kernel.

The kernel has two paths (``_field_kernel``).  The rate path, for every
protocol, applies the protocol to one gap matrix whose entries pairing a
strategy with a price, or the constant with anything, are exact zeros,
and sums inflow minus outflow: BLAS products of at most ``(N + 1) x
(N + 1)``.  The pattern path is Smith's rate ``max(g, 0)`` where the signs
of the gaps hold still: there the field is one bilinear form ``(C_S z_hat)
P``, with a tensor ``C_S`` built once per sign pattern ``S`` and cached on
the kernel, and a forward-Euler step takes 5 numpy calls instead of 9.  A
state takes it when it is *decisive*: ``max|P|`` lies in a range that
keeps the path's sums finite and its margin normal, and within each
population its payoffs, ranked, rise by more than ``tau = 2 (N + 1) eps
max|P|`` at each step, a margin that keeps the field of an exact-zero
share ``>= 0`` (derived in ``_field_kernel``).  Other states, other
protocols and games with ``N + 1 > PATTERN_SIZE_MAX`` take the rate path:
the tensor grows as ``N^3``, and up to the cap it holds at most ``16 N^2``
doubles.

``_field_kernel`` binds the kernel once, to work arrays of its own, and
with it the steps of the integrator: ``integrate`` binds it once per call,
so a step is one Python call that allocates no array but the protocol's
rates, and runs that share a game share no buffer.  The one-shot
evaluators (``_joint_field``, the public fields, the positivity limit,
``lyapunov.lyapunov_rate``) take ``z = (x, mu)``, put the 1 in front and
bind a kernel for the one state; the positivity limit reads the rate
path's out-rates.

``integrate`` advances the joint state with a fixed-step scheme in
speculative blocks whose guards are checked together, with array
operations over the block, keeping exactly the rows of a step-by-step
loop that evaluates ``_joint_field`` at each state.  A block steps on the
path of its first row, and its guards check, from the payoffs the steps
wrote, that every row decides that path; the first row that does not ends
the block and starts the next on its own path.  The flow keeps both
populations on their simplexes, so an update that takes a share negative
is refused with the forward-Euler positivity limit of the step.  The
diagnostics downstream layers need (potential, constraint values,
Lyapunov value) are filled chunk by chunk, in batched passes over the
recorded states: after the loop, or as soon as their rows are final for a
caller that follows the rows as they are committed.
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
# Smith's rate takes the sign-pattern path on joint states of at most this many coordinates
PATTERN_SIZE_MAX = 14
# the pattern path takes payoffs with max|P| from PATTERN_PAYOFF_MIN up to PATTERN_PAYOFF_MAX
# over N + 1 times the larger population mass: its margin, gaps and products stay in range
PATTERN_PAYOFF_MIN = 2.0**-500
PATTERN_PAYOFF_MAX = 2.0**1021
# sign patterns one kernel caches before it empties its cache
PATTERNS_MAX = 256


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


class _Path(NamedTuple):
    """One route to the joint field, bound by ``_field_kernel``: the
    protocol's rates, a sign pattern's contraction, or the rule that picks
    one of them at each evaluation.

    ``field(z_hat, out, p)`` writes the field at ``z_hat`` into ``out`` and
    ``advance(z_hat, f, p, out)`` is the integrator's step: the field at
    ``z_hat`` into ``f`` and the update into ``out``.  Where the kernel
    checks its paths, both write the payoffs ``P = (G, 0, F)`` of each
    evaluation into ``p``, one row per RK4 stage.  ``holds(P)`` tells, for
    each row of a stack of payoffs, whether the state they were evaluated
    at takes this path, and ``contract(z_hat, out)`` writes the field at
    ``z_hat`` into ``out`` from the payoffs that the kernel's ``field``
    has written at it.  Both are ``None`` on the checked path, and
    ``holds`` in a kernel with the rate path alone.
    """

    field: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    advance: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    holds: Callable[[np.ndarray], np.ndarray] | None = None
    contract: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


class _FieldKernel(NamedTuple):
    """The joint field of one game and protocol, bound by ``_field_kernel``.

    ``field(z_hat, out)`` evaluates the field at one state on the path that
    the state decides, with one payoff evaluation, and ``checked`` is that
    rule as a ``_Path``.
    ``rate`` is the rate path.  ``decide(P)`` gives the path that the state
    with payoffs ``P`` decides; it is ``None`` when the kernel has the rate
    path alone, and then ``checked`` is ``rate``.  ``out_rates`` holds the
    out-rates at the state of the last rate-path evaluation, and ``F`` and
    ``G`` the two payoff vectors at the state of the last ``field`` call.
    """

    field: Callable[[np.ndarray, np.ndarray], np.ndarray]
    checked: _Path
    rate: _Path
    decide: Callable[[np.ndarray], _Path] | None
    out_rates: np.ndarray
    F: np.ndarray
    G: np.ndarray


class _FieldEvaluated(Exception):
    """Raised by an RK4 ``advance`` whose stage after the first raised: the
    row's own field was evaluated, and the stage's exception is the cause."""


def _field_kernel(
    game: GameSpec, protocol: Protocol, h: float = 0.0, integrator: str = "euler"
) -> _FieldKernel:
    """Fields of both populations at the homogeneous joint state
    ``z_hat = (1, x, mu)`` of length ``N + 1``, bound once to work arrays
    of their own, with the steps of length ``h`` of ``integrator``
    (``"euler"`` or ``"rk4"``).

    **The rate path.**  With ``R = rho(gaps)`` the rates of the payoff gaps
    ``P_i - P_j``, the field is

        zdot_i = sum_j R_ij z_j - z_i sum_j R_ji,

    inflow minus outflow, from two matrix-vector products: ``R z`` and the
    column sums ``out_j = (1 R)_j`` (into ``out_rates``), the rate at which
    each unit of ``j``'s mass leaves it.  A share at zero only gains, as its
    outflow term is an exact zero.  Inflow and outflow are summed apart, so
    each block's field sums to zero to rounding, not exactly.  The gap
    matrix is one rank-4 product ``U^T V`` of two ``(4, N + 1)`` row slices
    of one work array ``W``.  Split as ``(1, x, mu)``, ``U``'s rows are
    ``(0, 0, G)``, ``(0, F, 0)``, ``(0, 0, -1)``, ``(0, -1, 0)`` and
    ``V``'s are ``(0, 0, 1)``, ``(0, 1, 0)``, ``(0, 0, G)``, ``(0, F, 0)``.
    An entry within a population adds zeros to ``P_i - P_j``, so it is one
    rounding of the difference; an entry pairing a strategy with a price,
    or the constant with anything, adds zeros only, so it is an exact zero,
    its rate too (``rho(0) = 0``), and no mass crosses between the
    populations.  The field's entry 0 is then an exact zero, and every
    update keeps the constant exactly 1.  The payoff operator writes
    ``(G, 0, F)`` straight into the rows ``(0, 0, G)`` and ``(0, F, 0)``,
    which lie back to back in ``W``.  No product is larger than
    ``(N + 1) x (N + 1)``, and a forward-Euler step is 9 numpy calls, 10
    with a quadratic constraint (its payoff is two products).

    **The pattern path.**  Smith's rate ``max(g, 0)`` is linear wherever the
    signs of the gaps hold still.  With ``s_ij = 1`` where ``P_i > P_j``
    within a population, 0 elsewhere, and ``c_i = sum_j s_ji``,

        zdot_i = P_i (sum_j s_ij z_j + c_i z_i) - sum_k (s_ik z_k + s_ki z_i) P_k,

    one bilinear form ``zdot = (C_S z_hat) P`` with a tensor ``C_S`` of small
    integers, one ``(N (N + 1), N + 1)`` matrix.  A field is the payoff,
    the product ``C_S z_hat`` into rows 1 on of a matrix ``M``, and ``M P``;
    ``M``'s row 0 stays zero, so the field's entry 0 is an exact zero.  A
    forward-Euler step is 5 numpy calls (6 with a quadratic constraint).
    The tensor of each pattern is built at its first use and cached on the
    kernel, never on the game; past ``PATTERNS_MAX`` patterns the cache is
    emptied.

    The pattern path applies at a *decisive* state.  First, ``max|P|``
    lies between ``PATTERN_PAYOFF_MIN`` and ``PATTERN_PAYOFF_MAX / ((N + 1)
    m_max)``, with ``m_max`` the larger population mass (at least 1).  The
    entries of row ``i`` of ``M`` sum in absolute value to at most ``2 m``
    times the mass of ``i``'s population of ``m`` strategies, so every
    partial sum of ``M P`` is at most ``2^1022`` and finite; and ``tau``
    below is a normal number.  Second, within each population the payoffs, ranked, rise by
    more than ``tau = 2 (N + 1) eps max|P|`` at each step, each step one
    rounding of ``P_hi - P_lo``.  Then every within-population gap exceeds
    ``tau / (1 + eps)`` exactly and ``tau`` once rounded.  The margin keeps
    the field of an exact-zero share ``>= 0``, as on the rate path.  With
    ``z_i = 0`` and ``a = sum_k s_ik z_k``, row ``i`` of ``M`` holds ``a``
    (one sum of ``m <= N`` nonnegative terms) against ``P_i`` and the exact
    ``-z_k`` against each better ``P_k``.  The ``N + 1`` term product ``M
    P`` then errs by at most ``(gamma_N + 2 gamma_(N+1)) a max|P|``,
    ``gamma_k ~ k eps / 2``: less than ``1.5 (N + 1) eps a max|P|`` to first
    order.  Its exact value is at least ``a tau / (1 + eps)``, so the
    rounded one is not negative.  That holds while the products of ``a``
    with the payoffs are normal numbers, which the floor on ``max|P|``
    keeps for every ``a`` of at least ``2^-521``; a sum of shares below
    that, reached only by a decay of 157 orders of magnitude, can leave the
    field a few subnormal units, ``(N + 1) 2^-1075``, below zero.
    Elsewhere the two paths agree to the rounding of their sums.  The field
    takes the rate path at a state that is not decisive, under every other
    protocol, and for ``N + 1 > PATTERN_SIZE_MAX``: ``C_S``, which grows as
    ``N^3``, takes at most ``16 N^2`` doubles up to the cap, and past it
    the step soon gets slower than the rate path's.

    ``field`` decides the path from the payoffs at each state.  A step on a
    given path skips that decision, and the path's ``holds`` makes it after
    the fact from the payoffs that the step wrote: for a pattern it checks
    the steps of that pattern's ranking, which is the same rule, as a state
    that ranks its payoffs otherwise has a step that does not rise.
    ``integrate`` keeps only the rows whose every evaluation took the path
    of its own state.

    A call allocates no array but the protocol's rates (and the fitness
    rule's value when it has no affine form).  The work arrays belong to
    the kernel, never to the game, so runs on one game share no buffer.
    """
    n, q1 = game.n, game.q + 1
    size = n + q1 + 1
    W = np.zeros((6, size))
    W[0, n + 1 :] = W[1, 1 : n + 1] = 1.0
    W[4, n + 1 :] = W[5, 1 : n + 1] = -1.0
    # W[2] = (0, 0, G) and W[3] = (0, F, 0): G ends one row where the constant's 0 starts the next
    GF = W[2:4].reshape(2 * size)[n + 1 : n + 1 + size]
    F, G = W[3, 1 : n + 1], W[2, n + 1 :]
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
    add, copyto, dot, multiply, subtract = np.add, np.copyto, np.dot, np.multiply, np.subtract
    checking = value is _smith_rate and size <= PATTERN_SIZE_MAX
    rk4 = _rk4_stages(h, size) if integrator == "rk4" else None

    def stepped(field, advance, holds=None, contract=None):
        return _Path(field, advance if rk4 is None else rk4(field), holds, contract)

    def rate_contract(z, out):
        # the protocol may overwrite the gaps: the product rewrites them all
        rates = value(gaps_dot(V, gaps))
        ones_dot(rates, out_rates)
        dot(rates, z, out)
        return subtract(out, multiply(z, out_rates, outflow), out)

    def rate_field(z, out, p):
        payoff(z, GF)
        if checking:
            copyto(p, GF)
        return rate_contract(z, out)

    def rate_advance(z, f, p, out):
        payoff(z, GF)
        if checking:
            copyto(p, GF)
        rates = value(gaps_dot(V, gaps))
        ones_dot(rates, out_rates)
        dot(rates, z, f)
        subtract(f, multiply(z, out_rates, outflow), f)
        return add(z, multiply(f, hv, hf), out)

    if not checking:
        rate = stepped(rate_field, rate_advance)

        def rate_only(z, out):
            return rate_field(z, out, None)

        return _FieldKernel(rate_only, rate, rate, None, out_rates, F, G)

    # (offset in z_hat, offset in P = (G, 0, F), strategies) of each population
    populations = ((1, q1 + 1, n), (n + 1, 0, q1))
    margin = 2.0 * size * np.finfo(float).eps
    top_max = PATTERN_PAYOFF_MAX / max(1.0, size * max(game.primal_mass, game.dual_mass))
    M = np.zeros((size, size))
    M_dot = M.dot
    M_rows = M[1:].reshape((size - 1) * size)

    def rises(P, lo, hi, ends):
        """Whether the payoffs ``P`` (one vector, or a stack with one per row)
        rise by more than ``tau`` at each step ``(lo[k], hi[k])``, with
        ``max|P|``, read at ``ends``, in the pattern path's range."""
        Pt = P.T
        top = np.maximum.reduce(np.abs(Pt[ends]), axis=0)
        low = np.minimum.reduce(Pt[hi] - Pt[lo], axis=0, initial=np.inf)
        return (top >= PATTERN_PAYOFF_MIN) & (top <= top_max) & (low > margin * top)

    def decisive(P):
        """``rises`` for each row of the stack ``P`` along that row's own ranking."""
        top = np.abs(P).max(axis=1)
        low = np.full(len(P), np.inf)
        for _, po, m in populations:
            steps = np.diff(np.sort(P[:, po : po + m], axis=1), axis=1)
            np.minimum(low, steps.min(axis=1, initial=np.inf), out=low)
        return (top >= PATTERN_PAYOFF_MIN) & (top <= top_max) & (low > margin * top)

    rate = stepped(rate_field, rate_advance, lambda P: ~decisive(P), rate_contract)

    def ranking(orders):
        """``(lo, hi, ends)``: the steps between neighbours, and the two ends,
        of each population's strategies ranked by ``orders`` (indices within
        it, lowest payoff first), as indices into ``P``."""
        ranked = [po + order for (_, po, _), order in zip(populations, orders)]
        parts = zip(*[(r[:-1], r[1:], r[[0, -1]]) for r in ranked])
        return tuple(np.concatenate(part) for part in parts)

    def pattern(orders, lo, hi, ends):
        """The path of the pattern of ``ranking(orders)``."""
        # rows 1 on of M against z_hat; a strategy pairs with its own population only
        C = np.zeros((size - 1, size, size))
        for (zo, po, m), order in zip(populations, orders):
            rank = np.empty(m, dtype=np.intp)
            rank[order] = np.arange(m)
            S = (rank[:, None] > rank).astype(float)
            B, r = C[zo - 1 : zo - 1 + m, :, zo : zo + m], np.arange(m)
            B[r, po + r, :] += S  # P_i s_ij z_j
            B[r[:, None], po + r, r] -= S  # -s_ik z_k P_k
            B[r[:, None], po + r, r[:, None]] -= S.T  # -s_ki z_i P_k
            B[r, po + r, r] += S.sum(axis=0)  # c_i z_i P_i
        C_dot = C.reshape((size - 1) * size, size).dot

        def contract(z, out):
            C_dot(z, M_rows)
            return M_dot(GF, out)

        def field(z, out, p):
            payoff(z, p)
            C_dot(z, M_rows)
            return M_dot(p, out)

        def advance(z, f, p, out):
            payoff(z, p)
            C_dot(z, M_rows)
            M_dot(p, f)
            return add(z, multiply(f, hv, hf), out)

        def holds(P):
            return rises(P, lo, hi, ends)

        return stepped(field, advance, holds, contract)

    patterns = {}

    def decide(P):
        orders = [np.argsort(P[po : po + m], kind="stable") for _, po, m in populations]
        key = b"".join(order.tobytes() for order in orders)
        found = patterns.get(key)
        if found is not None:
            return found if found.holds(P) else rate
        # ties rank in index order, and a tie is a step that does not rise
        steps = ranking(orders)
        if not rises(P, *steps):
            return rate
        if len(patterns) >= PATTERNS_MAX:
            patterns.clear()
        found = patterns[key] = pattern(orders, *steps)
        return found

    def field(z, out):
        payoff(z, GF)
        return decide(GF).contract(z, out)

    def checked_field(z, out, p):
        field(z, out)
        copyto(p, GF)
        return out

    def checked_advance(z, f, p, out):
        field(z, f)
        copyto(p, GF)
        return add(z, multiply(f, hv, hf), out)

    checked = stepped(checked_field, checked_advance)
    return _FieldKernel(field, checked, rate, decide, out_rates, F, G)


def _rk4_stages(h: float, size: int):
    """``rk4(field)`` composes the classic RK4 step ``advance(z, k1, p, out)``
    from a field ``field(z, out, p)``: the field at ``z`` into ``k1``, the
    payoffs of stage ``s`` into ``p[s]`` and the update into ``out``.

    An exception from the field at ``z`` propagates as it is; one from a
    later stage is raised as ``_FieldEvaluated`` from it, as ``k1`` is then
    the field at ``z``.  The steps share one set of work arrays.
    """
    k2, k3, k4, zt = np.empty((4, size))
    add, multiply = np.add, np.multiply
    # the factors as arrays, as the field kernel binds h
    half, hv, sixth, two = np.array([[0.5 * h], [h], [h / 6.0], [2.0]]).repeat(size, axis=1)

    def rk4(field):
        def advance(z, k1, p, out):
            field(z, k1, p[0])
            try:
                field(add(z, multiply(k1, half, out=zt), out=zt), k2, p[1])
                field(add(z, multiply(k2, half, out=zt), out=zt), k3, p[2])
                field(add(z, multiply(k3, hv, out=zt), out=zt), k4, p[3])
            except Exception as exc:
                raise _FieldEvaluated from exc
            # k1 + 2 k2 + 2 k3 + k4, summed left to right
            add(k1, multiply(k2, two, out=k2), out=k2)
            add(k2, multiply(k3, two, out=k3), out=k2)
            add(k2, k4, out=k2)
            return add(z, multiply(k2, sixth, out=k2), out=out)

        return advance

    return rk4


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
        kernel.rate.field(z_hat, np.empty(z_hat.size), np.empty(z_hat.size))
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
    row of one state buffer per step, with forward Euler or classic RK4
    (the ``advance`` of a kernel path) at fixed step ``params.step``.  The
    constant is written in row 0 only: the field's entry 0 is an exact
    zero, so every update keeps it exactly 1.
    Recorded times are ``k * step`` exactly as computed by that product.

    Steps are taken in speculative blocks.  Inside a block a step is one
    call that evaluates the field at its row and writes the update as the
    next row; the guards of all the block's steps are then checked at
    once, and the block keeps exactly the rows a step-by-step loop would
    have produced.  A block is at most ``BLOCK_MAX`` steps long: its length
    doubles after each clean block, stops at the horizon and, once the
    field has been quiet for ``quiet`` steps, ends ``window - quiet`` steps
    on, where the streak would converge.

    Where the kernel has the pattern path, a block steps every row on one
    path: the path of the row before it, or the one its first row decides
    when that row is checked (``_FieldKernel.checked``: the first block,
    and the row after one that raised).  The path's ``holds`` then decides,
    from the payoffs each step wrote, whether each row's state takes that
    path (for RK4, at every stage), by the rule ``field`` applies; the
    first row that does not ends the block before it, and the next block
    starts at that row on the path its payoffs decide, or checked when a
    later RK4 stage alone left the path.  So every kept row's field is the
    one ``_joint_field`` gives at its state.  A block cut short by a change
    of path starts the doubling of block lengths over at 1.

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
    report every non-finite value, and discarded rows must not warn.  Where
    the kernel checks paths, an exception at a row that took the block's
    path ends the block before that row, and a checked row starts the next
    one.  Otherwise an exception from the field or the fitness at a
    speculative state ends the block there; it propagates only if every
    earlier row passed its checks without stopping, that is, only if a
    step-by-step loop would have reached that state, and is dropped with
    the discarded rows otherwise.
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
    width = states.shape[1]
    fields = np.empty((min(T, BLOCK_MAX), width))
    kernel = _field_kernel(game, protocol, h, params.integrator)
    checked, checking = kernel.checked, kernel.decide is not None
    path = checked
    # the payoffs of each step's evaluations, one row per RK4 stage
    stages = () if params.integrator == "euler" else (4,)
    payoffs = np.empty((fields.shape[0], *stages, width))
    # the payoffs at each row's own state
    leading = payoffs if params.integrator == "euler" else payoffs[:, 0]
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
            z, out = states[start], states[start + 1]
            # a checked first row decides its own path, and the rows after it
            # take the block's path, which the scan below checks
            lead = int(checking and path is checked)
            after = None
            try:
                if lead:
                    z = path.advance(z, fields[0], payoffs[0], out)
                    path = kernel.decide(leading[0])
                advance = path.advance
                updates = states[start + 1 + lead : start + 1 + K]
                for f, p, out in zip(fields[lead:K], payoffs[lead:K], updates):
                    z = advance(z, f, p, out)
            except Exception as exc:  # user code in the field; the scan decides if it propagates
                # the row whose step raised, from the offset of the update it was writing
                updated = (out.ctypes.data - states.ctypes.data) // states.strides[0] - start - 1
                if checking and updated >= lead:
                    # the row took the block's path, which its state may not decide:
                    # the block ends before it, and a checked row starts the next
                    evaluated, after = updated, checked
                elif isinstance(exc, _FieldEvaluated):
                    error, evaluated = exc.__cause__, updated + 1
                else:
                    error, evaluated = exc, updated
            if checking and evaluated > lead:
                held = path.holds(payoffs[lead:evaluated].reshape(-1, width))
                missed = np.flatnonzero(~held.reshape(evaluated - lead, -1).all(axis=1))
                if missed.size:
                    # the first row whose state decides another path ends the
                    # block, and the next starts there on the path its payoffs
                    # decide, or checked when they decide this one (a later
                    # RK4 stage took another)
                    evaluated = updated = lead + int(missed[0])
                    after = kernel.decide(leading[evaluated])
                    after = checked if after is path else after
            if not evaluated and error is None:
                # cut at its first row: the next block starts there on that row's path
                path, size = after, 1
                continue

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
                if after is None:
                    size = min(2 * size, BLOCK_MAX)
                else:
                    # the next block takes the path of the row that cut this one
                    path, size = after, 1
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
