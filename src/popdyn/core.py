"""Problem instances and payoff algebra for constrained population games.

A game couples a strategy-playing population living on the mass-``m_P``
simplex with a constraint-pricing population living on the mass-``m_D``
simplex.  The pricing population's strategies index the inequality
constraints ``g_k(x) <= 0`` for ``k = 1..q`` plus a null strategy ``0``
whose payoff is identically zero.  This module holds the instance data
(fitness rules, potentials, constraints, population states) and the pure
evaluation operations that the dynamics, Lyapunov, and equilibrium layers
build on.

The dynamics evaluate payoffs through the payoff operator each
``GameSpec`` builds on construction and stores once, as
``_payoff_homogeneous``: both payoff vectors at the joint state
``z = (x, mu)`` as one polynomial of degree at most two,
``P(z) = (T x + L) z + c``, written for the homogeneous state
``z_hat = (1, x, mu)``, whose constant coordinate lets ``L`` and ``c``
ride inside the one copy.  Two routes read it: ``_payoff_kernel``
evaluates it at one state in one matrix product, or two with a quadratic
constraint, with nothing added after them, and ``_joint_payoff_stack``
evaluates it on a stack of states with ``c``, ``L`` and ``T`` read back
out of the same copy.  The public evaluators
(``primal_dual_payoff``, ``constraint_values``, ``constraint_jacobian``)
go through the fitness rule and the constraint objects; they are the
reference the operator is tested against.

Conventions used throughout:

* instance data are read-only float arrays with finite entries
  (``_frozen_array``);
* states are 1-d float arrays; a ``value_batch`` takes one state per row;
* the dual vector has length ``q + 1`` and index 0 is the null strategy;
* a constraint is satisfied when its value is ``<= 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

SIMPLEX_MASS_TOL = 1e-9
FD_STEP = 1e-6
STABLE_TOL = 1e-9
# slack when checking that a quadratic constraint's matrix is PSD
PSD_TOL = 1e-10


class ConfigurationError(ValueError):
    """Raised when instance data or arguments are malformed or inconsistent."""


class UnsupportedOperationError(RuntimeError):
    """Raised when an operation needs structure the instance does not carry."""


def _frozen_array(values, field: str) -> np.ndarray:
    """``values`` as a read-only float array; every entry must be finite."""
    arr = np.array(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"{field} has non-finite entries")
    arr.flags.writeable = False
    return arr


def _finite_number(value, field: str) -> float:
    """``value`` as a finite float; an array of any other shape is refused."""
    arr = _frozen_array(value, field)
    if arr.ndim:
        raise ConfigurationError(f"{field} must be a number")
    return float(arr)


def _uniform_simplex(rng: np.random.Generator, dim: int, mass: float) -> np.ndarray:
    """Uniform draw from the mass-``mass`` simplex via normalized exponentials."""
    e = rng.exponential(size=dim)
    return mass * (e / e.sum())


# ---------------------------------------------------------------------------
# population states


def _validate_simplex_state(state, field: str, side: str) -> None:
    """Freeze ``state.<field>`` and check it lies on the mass-``state.mass`` simplex.

    ``side`` (``"primal"`` or ``"dual"``) names the population in the errors.
    """
    v = _frozen_array(getattr(state, field), f"{side} state")
    if v.ndim != 1 or v.size == 0:
        raise ConfigurationError(f"{side} state must be a nonempty vector")
    if not state.mass > 0:
        raise ConfigurationError(f"{side} mass must be positive")
    if np.any(v < 0):
        raise ConfigurationError(f"{side} state has negative entries")
    if abs(float(v.sum()) - state.mass) > SIMPLEX_MASS_TOL:
        raise ConfigurationError(
            f"{side} state sums to {v.sum():.12g}, expected mass {state.mass:.12g}"
        )
    object.__setattr__(state, field, v)
    object.__setattr__(state, "mass", float(state.mass))


@dataclass(frozen=True, eq=False)
class PrimalState:
    """Strategy distribution of the playing population.

    ``x`` must be entrywise nonnegative and sum to ``mass`` within
    ``SIMPLEX_MASS_TOL``.
    """

    x: np.ndarray
    mass: float = 1.0

    def __post_init__(self):
        _validate_simplex_state(self, "x", "primal")

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True, eq=False)
class DualState:
    """Price distribution of the constraint population over ``{0, 1, .., q}``.

    Index 0 is the null strategy.  ``mu`` must be entrywise nonnegative and
    sum to ``mass`` within ``SIMPLEX_MASS_TOL``.
    """

    mu: np.ndarray
    mass: float

    def __post_init__(self):
        _validate_simplex_state(self, "mu", "dual")

    @property
    def q(self) -> int:
        """Number of priced constraints (excludes the null strategy)."""
        return self.mu.size - 1


# ---------------------------------------------------------------------------
# constraints


@dataclass(frozen=True, eq=False)
class AffineConstraint:
    """Inequality ``a . x - b <= 0``."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = _frozen_array(self.a, "affine constraint a")
        if a.ndim != 1 or a.size == 0:
            raise ConfigurationError("affine constraint coefficient must be a vector")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", _finite_number(self.b, "affine constraint b"))

    @property
    def dimension(self) -> int:
        return self.a.size

    def value(self, x: np.ndarray) -> float:
        return float(self.a @ x - self.b)

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        return X @ self.a - self.b

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.array(self.a)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return np.zeros((self.a.size, self.a.size))


@dataclass(frozen=True, eq=False)
class QuadraticConstraint:
    """Inequality ``x . Q x + a . x - c <= 0`` with ``Q`` symmetric PSD.

    Convexity of the feasible region needs ``Q >= 0``; both symmetry and
    positive semidefiniteness are validated on construction.
    """

    Q: np.ndarray
    a: np.ndarray
    c: float

    def __post_init__(self):
        Q = _frozen_array(self.Q, "quadratic constraint Q")
        a = _frozen_array(self.a, "quadratic constraint a")
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ConfigurationError("quadratic constraint matrix must be square")
        if a.ndim != 1 or a.size != Q.shape[0]:
            raise ConfigurationError("quadratic constraint vector/matrix size mismatch")
        if not np.allclose(Q, Q.T, atol=1e-12, rtol=0.0):
            raise ConfigurationError("quadratic constraint matrix must be symmetric")
        eigs = np.linalg.eigvalsh(Q)
        if eigs.min() < -PSD_TOL:
            raise ConfigurationError(
                f"quadratic constraint matrix has negative eigenvalue {eigs.min():.3g}"
            )
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", _finite_number(self.c, "quadratic constraint c"))

    @property
    def dimension(self) -> int:
        return self.a.size

    def value(self, x: np.ndarray) -> float:
        return float(x @ self.Q @ x + self.a @ x - self.c)

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        return np.einsum("ri,ij,rj->r", X, self.Q, X) + X @ self.a - self.c

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * (self.Q @ x) + self.a

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * np.array(self.Q)


Constraint = Union[AffineConstraint, QuadraticConstraint]


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True, eq=False)
class QuadraticPotential:
    """Potential ``p(x) = 0.5 x . H x + c . x`` with symmetric ``H``."""

    quad: np.ndarray
    linear: np.ndarray

    def __post_init__(self):
        H = _frozen_array(self.quad, "potential matrix H")
        c = _frozen_array(self.linear, "potential vector c")
        if H.ndim != 2 or H.shape[0] != H.shape[1] or c.size != H.shape[0]:
            raise ConfigurationError("potential matrix/vector shapes are inconsistent")
        if not np.allclose(H, H.T, atol=1e-12, rtol=0.0):
            raise ConfigurationError("potential matrix must be symmetric")
        object.__setattr__(self, "quad", H)
        object.__setattr__(self, "linear", c)

    def value(self, x: np.ndarray) -> float:
        return float(0.5 * (x @ self.quad @ x) + self.linear @ x)

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        return 0.5 * np.einsum("ri,ij,rj->r", X, self.quad, X) + X @ self.linear

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.quad @ x + self.linear

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return np.array(self.quad)

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        """The gradient as ``(J, offset)`` with ``grad p(x) = J x + offset``."""
        return self.quad, self.linear


@dataclass(frozen=True, eq=False)
class CongestionPotential:
    """Potential of a congestion game with affine edge costs.

    ``incidence`` maps strategies to edges (``incidence[e, i] = 1`` when
    strategy ``i`` uses edge ``e``) and ``weights[e] > 0`` scales the linear
    growth of the cost of edge ``e`` with its load.  Fitness is the negative
    strategy cost, so ``p(x) = -0.5 * sum_e w_e * load_e(x)^2`` with
    ``load = incidence @ x`` makes ``grad p`` the fitness vector.
    """

    incidence: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        inc = _frozen_array(self.incidence, "incidence")
        w = _frozen_array(self.weights, "edge weights")
        if inc.ndim != 2 or w.ndim != 1 or inc.shape[0] != w.size:
            raise ConfigurationError("incidence/weight shapes are inconsistent")
        if np.any(w <= 0):
            raise ConfigurationError("edge weights must be positive")
        object.__setattr__(self, "incidence", inc)
        object.__setattr__(self, "weights", w)

    def value(self, x: np.ndarray) -> float:
        load = self.incidence @ x
        return float(-0.5 * (self.weights @ (load * load)))

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        load = X @ self.incidence.T
        return -0.5 * (load * load) @ self.weights

    def gradient(self, x: np.ndarray) -> np.ndarray:
        load = self.incidence @ x
        return -(self.incidence.T @ (self.weights * load))

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return self.affine()[0]

    def affine(self) -> tuple[np.ndarray, float]:
        """The gradient as ``(J, offset)`` with ``grad p(x) = J x + offset``."""
        return -(self.incidence.T * self.weights) @ self.incidence, 0.0


@dataclass(frozen=True, eq=False)
class CallablePotential:
    """Potential given by arbitrary callables; gradient is required."""

    func: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def value(self, x: np.ndarray) -> float:
        return float(self.func(x))

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.func(row) for row in X], dtype=float)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad(x), dtype=float)

    def hessian(self, x: np.ndarray) -> Optional[np.ndarray]:
        if self.hess is None:
            return None
        return np.asarray(self.hess(x), dtype=float)

    def affine(self) -> None:
        """No affine form is known for an arbitrary gradient."""
        return None


PotentialRule = Union[QuadraticPotential, CongestionPotential, CallablePotential]


# ---------------------------------------------------------------------------
# fitness rules


@dataclass(frozen=True, eq=False)
class MatrixFitness:
    """Linear payoffs ``f(x) = A x``."""

    matrix: np.ndarray

    def __post_init__(self):
        A = _frozen_array(self.matrix, "payoff matrix")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConfigurationError("payoff matrix must be square")
        object.__setattr__(self, "matrix", A)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return np.array(self.matrix)

    def affine(self) -> tuple[np.ndarray, float]:
        """The rule as ``(J, offset)`` with ``f(x) = J x + offset``."""
        return self.matrix, 0.0


@dataclass(frozen=True, eq=False)
class PotentialFitness:
    """Payoffs given by the gradient of a scalar potential."""

    rule: PotentialRule

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.rule.gradient(x)

    def jacobian(self, x: np.ndarray) -> Optional[np.ndarray]:
        return self.rule.hessian(x)

    def affine(self) -> Optional[tuple]:
        """The rule as ``(J, offset)`` when the potential is quadratic, else ``None``."""
        return self.rule.affine()


@dataclass(frozen=True, eq=False)
class CallableFitness:
    """Payoffs from an arbitrary vector field, optionally with a Jacobian."""

    func: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(x), dtype=float)

    def jacobian(self, x: np.ndarray) -> Optional[np.ndarray]:
        if self.jac is None:
            return None
        return np.asarray(self.jac(x), dtype=float)

    def affine(self) -> None:
        """No affine form is known for an arbitrary vector field."""
        return None


FitnessRule = Union[MatrixFitness, PotentialFitness, CallableFitness]


# ---------------------------------------------------------------------------
# game specification


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Full description of a constrained population game.

    Parameters
    ----------
    n : int
        Number of primal strategies, at least 2.
    primal_mass, dual_mass : float
        Total masses of the two populations, both positive.
    fitness : FitnessRule
        Payoff rule of the playing population.
    constraints : sequence of Constraint
        The inequality constraints ``g_k <= 0`` for ``k = 1..q`` in order.
        The null constraint ``g_0 == 0`` is implicit and never stored.
    potential : PotentialRule, optional
        Scalar potential whose gradient equals the fitness.  Required by
        the grid oracle and by potential reporting; when given it is
        cross-checked against the fitness at a few sampled states.
    name : str
        Optional label used in logs and CLI output.
    start : PrimalState, optional
        Fixed start of the playing population, used by the CLI in place of
        a seeded random draw; must match ``n`` and ``primal_mass``.
    """

    n: int
    primal_mass: float
    dual_mass: float
    fitness: FitnessRule
    constraints: tuple = ()
    potential: Optional[PotentialRule] = None
    name: str = ""
    start: Optional[PrimalState] = None

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ConfigurationError("need at least 2 primal strategies")
        if not (self.primal_mass > 0 and math.isfinite(self.primal_mass)):
            raise ConfigurationError("primal mass must be positive and finite")
        if not (self.dual_mass > 0 and math.isfinite(self.dual_mass)):
            raise ConfigurationError("dual mass must be positive and finite")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "primal_mass", float(self.primal_mass))
        object.__setattr__(self, "dual_mass", float(self.dual_mass))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.start is not None and (
            self.start.n != self.n or self.start.mass != self.primal_mass
        ):
            raise ConfigurationError(
                f"start has {self.start.n} strategies and mass {self.start.mass:.12g}, "
                f"expected {self.n} and {self.primal_mass:.12g}"
            )
        for k, con in enumerate(self.constraints, start=1):
            if con.dimension != self.n:
                raise ConfigurationError(
                    f"constraint {k} has dimension {con.dimension}, expected {self.n}"
                )
        self._check_shapes_and_potential()
        self._build_payoff_operator()

    def _build_payoff_operator(self):
        """Store both payoff vectors ``P = (F(x, mu), G(x))`` at ``z = (x, mu)`` as one operator.

        With ``N = n + q + 1`` and an affine fitness rule ``f(x) = J x + f_0``,
        ``P(z) = (T x + L) z + c``.  ``L`` is ``(N, N)``: its x-block is
        ``J``, column ``n + k`` of the F rows holds ``-a_k`` and row ``n + k``
        of the G block holds ``a_k``, the linear part of constraint ``k``.
        ``c`` holds ``f_0``, then ``0`` for the null strategy and ``-b_k`` or
        ``-c_k``.  The bilinear tensor ``T`` of shape ``(N, N, n)`` exists
        only when a quadratic constraint does: ``T[:n, n + k] = -2 Q_k``
        prices its gradient and ``T[n + k, :n] = Q_k`` gives its value.  A
        fitness rule with no affine form leaves ``J`` and ``f_0`` zero, and
        the readers add ``f(x)`` to the F block.  The one stored copy,
        ``_payoff_homogeneous``, is in the layout ``_payoff_kernel``
        describes, with the F rows from row ``q + 2``.
        """
        n, F = self.n, self.q + 2
        size = n + self.q + 2
        quadratic = any(isinstance(con, QuadraticConstraint) for con in self.constraints)
        H = np.zeros((size, size, n + 1) if quadratic else (size, size))
        L = H[..., 0] if quadratic else H
        affine = self.fitness.affine()
        if affine is not None:
            L[F:, 1 : n + 1], L[F:, 0] = affine
        for k, con in enumerate(self.constraints, start=1):
            L[F:, n + 1 + k] = -con.a
            L[k, 1 : n + 1] = con.a
            if isinstance(con, AffineConstraint):
                L[k, 0] = -con.b
            else:
                L[k, 0] = -con.c
                H[F:, n + 1 + k, 1:] = -2.0 * con.Q
                H[k, 1 : n + 1, 1:] = con.Q
        object.__setattr__(self, "_payoff_homogeneous", _frozen_array(H, "payoff operator"))
        object.__setattr__(self, "_fitness_affine", affine is not None)

    def _check_shapes_and_potential(self):
        rng = np.random.default_rng(0)
        probe = _uniform_simplex(rng, self.n, self.primal_mass)
        try:
            f = np.asarray(self.fitness(probe), dtype=float)
        except Exception as exc:
            raise ConfigurationError(
                f"fitness rule failed on an {self.n}-strategy probe state: {exc}"
            ) from exc
        if f.shape != (self.n,):
            raise ConfigurationError(
                f"fitness returned shape {f.shape}, expected ({self.n},)"
            )
        if self.potential is None:
            return
        # the potential must actually generate the fitness: compare grad p
        # with f at a few random states via central differences on p
        for _ in range(3):
            x = _uniform_simplex(rng, self.n, self.primal_mass)
            fx = np.asarray(self.fitness(x), dtype=float)
            num = _central_differences(self.potential.value, x)
            if np.max(np.abs(num - fx)) > 1e-4:
                raise ConfigurationError(
                    "potential gradient disagrees with fitness "
                    f"(max deviation {np.max(np.abs(num - fx)):.3g})"
                )

    @property
    def q(self) -> int:
        return len(self.constraints)


def _central_differences(func: Callable[[np.ndarray], object], x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences of ``func`` at ``x``; entry or row ``i`` is the partial along ``x_i``.

    A scalar ``func`` gives the gradient, a vector ``func`` the transposed
    Jacobian.
    """
    rows = []
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = h
        hi = np.asarray(func(x + step), dtype=float)
        lo = np.asarray(func(x - step), dtype=float)
        rows.append((hi - lo) / (2.0 * h))
    return np.array(rows)


# ---------------------------------------------------------------------------
# state/game compatibility guards


def _check_primal(game: GameSpec, state: PrimalState) -> np.ndarray:
    if state.n != game.n:
        raise ConfigurationError(f"state has {state.n} strategies, game has {game.n}")
    if state.mass != game.primal_mass:
        raise ConfigurationError(
            f"state mass {state.mass:.12g} differs from game mass {game.primal_mass:.12g}"
        )
    return state.x


def _check_dual(game: GameSpec, state: DualState) -> np.ndarray:
    if state.q != game.q:
        raise ConfigurationError(f"state prices {state.q} constraints, game has {game.q}")
    if state.mass != game.dual_mass:
        raise ConfigurationError(
            f"state mass {state.mass:.12g} differs from game mass {game.dual_mass:.12g}"
        )
    return state.mu


# ---------------------------------------------------------------------------
# evaluation operations


def fitness(game: GameSpec, x: PrimalState) -> np.ndarray:
    """Payoff vector ``f(x)`` of the playing population."""
    return np.asarray(game.fitness(_check_primal(game, x)), dtype=float)


def potential(game: GameSpec, x: PrimalState) -> float:
    """Value of the scalar potential at ``x``.

    Raises ``UnsupportedOperationError`` when the game carries none.
    """
    xv = _check_primal(game, x)
    if game.potential is None:
        raise UnsupportedOperationError("game has no potential")
    return game.potential.value(xv)


def _constraint_values_raw(game: GameSpec, xv: np.ndarray) -> np.ndarray:
    return np.array([0.0] + [con.value(xv) for con in game.constraints])


def constraint_values(game: GameSpec, x: PrimalState) -> np.ndarray:
    """Vector ``(g_0(x), g_1(x), .., g_q(x))`` with ``g_0`` exactly zero."""
    return _constraint_values_raw(game, _check_primal(game, x))


def _constraint_jacobian_raw(game: GameSpec, xv: np.ndarray) -> np.ndarray:
    jac = np.zeros((game.q + 1, game.n))
    for k, con in enumerate(game.constraints, start=1):
        jac[k] = con.gradient(xv)
    return jac


def constraint_jacobian(game: GameSpec, x: PrimalState) -> np.ndarray:
    """Matrix of shape ``(q + 1, n)`` whose row ``k`` is ``grad g_k(x)``.

    Row 0 belongs to the null constraint and is identically zero.
    """
    return _constraint_jacobian_raw(game, _check_primal(game, x))


def _payoff_raw(game: GameSpec, xv: np.ndarray, muv: np.ndarray) -> np.ndarray:
    f = np.asarray(game.fitness(xv), dtype=float)
    if muv[1:].any():
        jac = _constraint_jacobian_raw(game, xv)
        return f - jac[1:].T @ muv[1:]
    return f


def _payoff_kernel(game: GameSpec) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The payoff operator (``GameSpec._build_payoff_operator``) at the
    homogeneous state ``z_hat = (1, x, mu)``, in the field kernel's order:
    ``payoff(z_hat, out)`` writes ``(G(x), 0, F(x, mu))`` into ``out`` and
    returns it.

    The operator is the game's ``_payoff_homogeneous``, the one stored copy:
    ``(c, L)`` with ``c`` in column 0, or with a quadratic constraint the
    tensor ``T_hat`` of shape ``(N + 1, N + 1, n + 1)`` that carries ``c``
    and ``L`` beside ``T``, so that ``T_hat (1, x) = (c, T x + L)``.  Its
    rows are the G rows, one zero row, which is the constant's payoff, and
    the F rows, so that ``dynamics._field_kernel`` can pass an ``out`` that
    lies across two rows of its work array.  The payoff is one product on
    the affine path and two with a quadratic constraint; nothing is added
    after either.  On the affine path ``payoff`` is the operator's bound
    ``ndarray.dot`` itself, so a call runs no Python; the quadratic path
    has a ``T_hat (1, x)`` work array of its own.  A call allocates no
    array unless the fitness rule has no affine form, and then ``f(x)`` is
    added to the F rows.
    """
    H = game._payoff_homogeneous
    if H.ndim == 2:
        payoff = H.dot
    else:
        size, n1 = H.shape[0], H.shape[2]
        TX = np.empty((size, size))
        T_dot, TX_flat, TX_dot = H.reshape(size * size, n1).dot, TX.reshape(size * size), TX.dot

        def payoff(z, out):
            T_dot(z[:n1], TX_flat)
            return TX_dot(z, out)

    if game._fitness_affine:
        return payoff
    fitness, n, F_start, add = game.fitness, game.n, game.q + 2, np.add

    def payoff_with_fitness(z, out):
        payoff(z, out)
        F = out[F_start:]
        add(F, fitness(z[1 : n + 1]), F)
        return out

    return payoff_with_fitness


def _joint_payoff_stack(game: GameSpec, Z: np.ndarray) -> np.ndarray:
    """Both payoff vectors ``P = (F(x, mu), G(x))`` for each row of an ``(S, N)`` stack ``Z``.

    ``c``, ``L`` and ``T`` are read from the game's one stored operator,
    ``_payoff_homogeneous``, with one row index that puts its F and G rows
    back in the order of ``z``; its constant's row and column are dropped.
    ``T`` is contracted with each row's ``x`` in one matrix product, then
    with ``z``; a single three-operand ``einsum`` is several times slower.
    The split parts keep the summation order of a product with ``L``
    alone: a product with the homogeneous operator moves ``V`` and
    ``g_max`` in the last bits.  Agrees with ``_payoff_kernel`` and with
    the rule-based ``primal_dual_payoff`` and ``constraint_values`` to
    rounding.
    """
    n, m = game.n, game.q + 1
    H = game._payoff_homogeneous[np.r_[m + 1 : m + 1 + n, :m]]
    if H.ndim == 2:
        P = Z @ H[:, 1:].T + H[:, 0]
    else:
        S, N = Z.shape
        P = Z @ H[:, 1:, 0].T + H[:, 0, 0]
        TX = (Z[:, :n] @ H[:, 1:, 1:].reshape(N * N, n).T).reshape(S, N, N)
        P += np.einsum("sij,sj->si", TX, Z)
    if not game._fitness_affine:
        P[:, :n] += np.array([game.fitness(x) for x in Z[:, :n]], dtype=float)
    return P


def primal_dual_payoff(game: GameSpec, x: PrimalState, mu: DualState) -> np.ndarray:
    """Constraint-discounted payoffs ``f_i(x) - sum_k mu_k dg_k/dx_i``.

    When all dual mass sits on the null strategy the result equals the raw
    fitness bitwise; no penalty arithmetic runs in that case.
    """
    return _payoff_raw(game, _check_primal(game, x), _check_dual(game, mu))


def fitness_jacobian(game: GameSpec, x: PrimalState) -> np.ndarray:
    """Jacobian ``Df(x)``, analytic when the rule has one, else central differences."""
    xv = _check_primal(game, x)
    return _fitness_jacobian_raw(game, xv)


def _fitness_jacobian_raw(game: GameSpec, xv: np.ndarray) -> np.ndarray:
    jac = game.fitness.jacobian(xv)
    if jac is not None:
        jac = np.asarray(jac, dtype=float)
        if jac.shape != (game.n, game.n):
            raise ConfigurationError(
                f"fitness jacobian has shape {jac.shape}, expected {(game.n, game.n)}"
            )
        return jac
    return np.ascontiguousarray(_central_differences(game.fitness, xv).T)


def _payoff_jacobian_raw(game: GameSpec, xv: np.ndarray, muv: np.ndarray) -> np.ndarray:
    jac = _fitness_jacobian_raw(game, xv)
    for k, con in enumerate(game.constraints, start=1):
        if muv[k] != 0.0 and isinstance(con, QuadraticConstraint):
            jac = jac - muv[k] * con.hessian(xv)
    return jac


def primal_dual_payoff_jacobian(game: GameSpec, x: PrimalState, mu: DualState) -> np.ndarray:
    """Jacobian of the constraint-discounted payoff, ``Df - sum_k mu_k Hess g_k``."""
    return _payoff_jacobian_raw(game, _check_primal(game, x), _check_dual(game, mu))


def lagrangian(game: GameSpec, x: PrimalState, mu: DualState) -> float:
    """Value ``p(x) - sum_{k>=1} mu_k g_k(x)``; needs a potential."""
    xv = _check_primal(game, x)
    muv = _check_dual(game, mu)
    if game.potential is None:
        raise UnsupportedOperationError("lagrangian needs a potential")
    g = _constraint_values_raw(game, xv)
    return game.potential.value(xv) - float(muv[1:] @ g[1:])


class StabilityCheck(NamedTuple):
    stable: bool
    worst: float


def check_stable_game(game: GameSpec, samples: int = 200, seed: int = 0) -> StabilityCheck:
    """Test of the stable-game property ``z . Df(x) z <= 0`` for ``sum z = 0``.

    Draws ``samples`` states uniformly from the simplex and, at each, takes
    the largest eigenvalue of the symmetric part of ``Df(x)`` restricted to
    the tangent space ``sum z = 0``: the largest ``z . Df(x) z`` over unit
    tangent ``z``.  ``worst`` is the largest over the states, and the game
    passes when it stays at or below ``STABLE_TOL``.  A rule with an affine
    form has a constant Jacobian, so the first state alone is drawn and the
    test is exact: it proves stability.  For a state-dependent Jacobian it
    can only refute it.
    """
    if samples < 1:
        raise ConfigurationError("need at least one sample")
    if game.fitness.affine() is not None:
        samples = 1
    n = game.n
    # orthonormal columns spanning the tangent space
    basis = np.linalg.qr(np.eye(n)[:, : n - 1] - 1.0 / n)[0]
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(samples):
        jac = _fitness_jacobian_raw(game, _uniform_simplex(rng, n, game.primal_mass))
        tangent = basis.T @ jac @ basis
        worst = max(worst, float(np.linalg.eigvalsh(0.5 * (tangent + tangent.T))[-1]))
    return StabilityCheck(worst <= STABLE_TOL, worst)
