"""Equilibrium tests, the saddle check, the dual-mass bound, and two optimum solvers.

Membership in the equilibria set is two coupled Nash conditions, one per
population.  ``nash_gaps`` measures both exactly, as the payoff each
population forgoes against its best reply: ``x . (max F - F)`` over the
constraint-discounted payoffs and ``mu . (max g - g)`` over the constraint
values, the null constraint's ``g_0 = 0`` included (Sandholm 2010).  The
report reads them, and so does ``saddle_check``: under a concave potential
they are the worst violations of the Lagrangian's saddle inequalities.

``optimum_solve`` finds the constrained equilibrium of any stable game
whose fitness is affine, ``f(x) = J x + f_0`` with ``z . J z <= 0`` on
``sum z = 0``: the solution of the monotone variational inequality
``f(x*) . (y - x*) <= 0`` for every feasible ``y`` (Hofbauer & Sandholm
2009), which for a potential game is ``max p(x)  s.t.  g_k(x) <= 0``.  It
is a primal-dual interior-point method on the mass-``m`` simplex that reads
the fitness rule, the potential and the constraint objects alone, sharing
no code path with the dynamics or the payoff operator it is used to
validate, and its answer carries a gap certificate that holds whatever the
solver did; the CLI uses it.  ``oracle_solve`` enumerates a feasible grid
and refines it by random search; it stays as a solver-free cross-check of
the potential case for the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import core
from .core import (
    ConfigurationError,
    DualState,
    GameSpec,
    PrimalState,
    UnsupportedOperationError,
)

DEFAULT_NASH_TOL = 1e-9
# slack when classifying grid/search points as feasible
FEAS_EPS = 1e-12
# cap on the phase-1 grid size of the oracle
MAX_GRID_POINTS = 4_000_000
# optimum_solve: iteration cap, fraction of the step to the boundary taken,
# the neighbourhood of the central path every step stays in (each
# complementarity product at least this fraction of their mean), the step
# below which a plain centring step replaces the corrector and its
# centring parameter, the stopping target, and the accepted residual and
# relative certificate gap
OPTIMUM_MAX_ITERS = 100
OPTIMUM_STEP_FRACTION = 0.995
OPTIMUM_NEIGHBORHOOD = 1e-2
OPTIMUM_SHORT_STEP = 0.1
OPTIMUM_CENTERING = 0.5
OPTIMUM_STOP_TOL = 1e-13
OPTIMUM_FEAS_TOL = 1e-10
OPTIMUM_GAP_TOL = 1e-9
# relative float error allowed for in the certificate (about 450 ulps)
OPTIMUM_ROUNDING = 1e-13


class SlaterViolationError(ValueError):
    """Raised when a candidate interior point fails strict feasibility.

    ``index`` is the 1-based constraint index that failed, or ``None`` when
    the point itself is not strictly positive.
    """

    def __init__(self, message: str, index: Optional[int] = None):
        self.index = index
        super().__init__(message)


class InfeasibleInstanceError(RuntimeError):
    """Raised when a solver finds no feasible point of the constrained program."""


class NashGaps(NamedTuple):
    """Nash gaps of the playing and the pricing population (see ``nash_gaps``).

    Both are nonnegative, and both are 0 exactly at a Nash point.
    """

    primal: float
    dual: float


class OracleSolution(NamedTuple):
    point: PrimalState
    value: float
    gap: float


class CertifiedOptimum(NamedTuple):
    """The constrained equilibrium of a stable game with affine fitness, certified.

    ``point`` is the equilibrium ``x*`` and ``multipliers`` are its
    constraint prices ``lambda_1..lambda_q``, whose sum is the dual mass the
    equilibrium needs.  With a potential, ``x*`` maximizes it over the
    feasible set, ``value`` is ``p(point)`` and ``upper`` bounds the optimum
    from above for correct ``multipliers`` and wrong ones alike (see
    ``optimum_solve``); without one both are ``None``.
    """

    point: PrimalState
    value: Optional[float]
    upper: Optional[float]
    multipliers: np.ndarray


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """Residual diagnostics for a candidate state pair.

    The Nash residuals are the two Nash gaps (``nash_gaps``); the verdict is
    ``in_E`` when both are at most the tolerance.  Feasibility (``max g``)
    and complementarity (at most the dual gap) are diagnostics.  All
    residuals are nonnegative.
    """

    primal_nash_residual: float
    dual_nash_residual: float
    feasibility_residual: float
    complementarity_residual: float
    verdict: str

    @property
    def in_set(self) -> bool:
        return self.verdict == "in_E"

    def as_dict(self) -> dict:
        return {
            "primal_nash_residual": self.primal_nash_residual,
            "dual_nash_residual": self.dual_nash_residual,
            "feasibility_residual": self.feasibility_residual,
            "complementarity_residual": self.complementarity_residual,
            "verdict": self.verdict,
        }


@dataclass(frozen=True, eq=False)
class SlaterPoint:
    """Strictly feasible interior point with its constraint margin.

    ``margin`` is ``min_k |g_k(point)|`` over the real constraints; it is
    infinite when the game has none.
    """

    point: PrimalState
    margin: float


def nash_gaps(game: GameSpec, x: PrimalState, mu: DualState) -> NashGaps:
    """Exact Nash gaps ``x . (max F - F)`` and ``mu . (max g - g)``, with ``g_0 = 0``.

    Every term is a nonnegative share times a nonnegative shortfall, so both
    gaps are nonnegative in floating point too, and 0 at an exact Nash
    point.  ``F`` and ``g`` come from the fitness rule and the constraint
    objects, not from the payoff operator the dynamics integrate.
    """
    xv, muv = core._check_primal(game, x), core._check_dual(game, mu)
    return _gaps(xv, muv, core._payoff_raw(game, xv, muv), core._constraint_values_raw(game, xv))


def _gaps(xv: np.ndarray, muv: np.ndarray, F: np.ndarray, g: np.ndarray) -> NashGaps:
    return NashGaps(float(xv @ (F.max() - F)), float(muv @ (g.max() - g)))


def _check_tolerance(tol: float) -> None:
    """Refuse a report tolerance that is not positive and finite."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ConfigurationError(f"tolerance must be positive and finite, got {tol!r}")


def in_equilibria_set(
    game: GameSpec, x: PrimalState, mu: DualState, tol: float = DEFAULT_NASH_TOL
) -> EquilibriumReport:
    """Both Nash gaps against ``tol``, with feasibility and complementarity diagnostics."""
    _check_tolerance(tol)
    xv, muv = core._check_primal(game, x), core._check_dual(game, mu)
    g = core._constraint_values_raw(game, xv)
    gaps = _gaps(xv, muv, core._payoff_raw(game, xv, muv), g)
    comp = float(np.max(muv[1:] * np.maximum(-g[1:], 0.0))) if game.q else 0.0
    return EquilibriumReport(
        primal_nash_residual=gaps.primal,
        dual_nash_residual=gaps.dual,
        feasibility_residual=float(g.max()),
        complementarity_residual=comp,
        verdict="in_E" if max(gaps) <= tol else "not_in_E",
    )


def slater_point(game: GameSpec, x: PrimalState) -> SlaterPoint:
    """Certify ``x`` as strictly positive and strictly feasible.

    Raises ``SlaterViolationError`` naming the first failing constraint (or
    the positivity failure) otherwise.
    """
    xv = core._check_primal(game, x)
    if np.any(xv <= 0):
        bad = int(np.argmin(xv))
        raise SlaterViolationError(
            f"interior point required: coordinate {bad} is not strictly positive"
        )
    g = core.constraint_values(game, x)
    for k in range(1, game.q + 1):
        if g[k] >= 0:
            raise SlaterViolationError(
                f"constraint {k} is not strictly satisfied (g_{k} = {g[k]:.6g})", index=k
            )
    margin = float(np.min(np.abs(g[1:]))) if game.q else math.inf
    return SlaterPoint(point=x, margin=margin)


def dual_mass_bound(game: GameSpec, slater: SlaterPoint, p_star_upper: float) -> float:
    """Sufficient dual mass ``(p_star_upper - p(x_tilde)) / margin``.

    Any dual mass at or above the returned value keeps the optimal prices
    inside the dual simplex.  ``p_star_upper`` must be a certified upper
    bound on the constrained optimum, e.g. 0 for a nonpositive potential or
    ``optimum_solve(game).upper``, and finite; a game without a potential
    raises ``UnsupportedOperationError``.
    """
    p_tilde = core.potential(game, slater.point)
    if not math.isfinite(p_star_upper):
        raise ConfigurationError(f"p_star_upper must be finite, got {p_star_upper!r}")
    if not slater.margin > 0:
        raise SlaterViolationError("Slater margin must be positive")
    if p_star_upper < p_tilde:
        raise ConfigurationError(
            "p_star_upper is below the potential at the interior point; "
            "it cannot be an upper bound on the optimum"
        )
    if math.isinf(slater.margin):
        return 0.0
    return (p_star_upper - p_tilde) / slater.margin


# ---------------------------------------------------------------------------
# interior-point equilibrium with a gap certificate


def optimum_solve(game: GameSpec) -> CertifiedOptimum:
    """The constrained equilibrium of a stable game with affine fitness, certified.

    A primal-dual interior-point method (Mehrotra predictor-corrector) on
    the KKT system of the variational inequality: ``f(x) - jac g(x)^T lambda
    + z + nu = 0``, ``g(x) + s = 0``, ``sum(x) = m``, ``x, s, lambda, z >= 0``
    with ``s lambda = 0`` and ``x z = 0``, started from the barycenter,
    which need not be feasible.  For a potential game ``f = grad p`` and this
    is ``max p(x)  s.t.  g(x) <= 0``.  Each iteration solves one
    ``(n+q+1) x (n+q+1)`` Newton system in ``(dx, dlambda, dnu)`` built from
    the fitness Jacobian ``J`` plus ``sum_k lambda_k * hess g_k``; keeping
    ``dlambda`` in the system, instead of eliminating it through the
    ``lambda_k / s_k`` weights that blow up on active constraints, keeps the
    certificate gap near rounding level.  Every step stays in a wide
    neighbourhood of the central path (``_central_step``), and when that
    leaves the predictor-corrector step shorter than ``OPTIMUM_SHORT_STEP``
    a plain centring step is taken instead.

    The certificate does not trust the solver.  With ``d = grad p - jac g^T
    lambda`` at the returned ``x`` (``f`` in place of ``grad p`` without a
    potential), ``gap = m * max_i d_i - d . x - lambda . g(x)`` is the
    Lagrangian-relaxed gap of the variational inequality: it bounds
    ``f(x) . (y - x)`` over every feasible ``y`` of the simplex, and it is 0
    at a solution with its prices.  With a potential, for any
    ``lambda >= 0`` the function ``phi = p - lambda . g`` is concave on the
    simplex and at least ``p`` on the feasible set, so
    ``p* <= p(x) + gap``; that bound plus an allowance for float rounding
    is ``upper``.

    Raises ``UnsupportedOperationError`` when the fitness rule has no affine
    form, ``ConfigurationError`` when its Jacobian curves up on ``sum z =
    0`` (the game is not stable), ``InfeasibleInstanceError`` when the
    final point violates a constraint or the mass by more than
    ``OPTIMUM_FEAS_TOL``, and ``ConfigurationError`` when the gap, rounding
    allowance included, exceeds ``OPTIMUM_GAP_TOL * max(1, |p(x)|)``.
    """
    n, m, q = game.n, game.primal_mass, game.q
    x = np.full(n, m / n)
    jac_f = _stable_jacobian(game)
    hess_g = np.array([con.hessian(x) for con in game.constraints]).reshape(q, n, n)
    g = core._constraint_values_raw(game, x)[1:]
    jac = core._constraint_jacobian_raw(game, x)[1:]
    s = np.maximum(-g, 1.0)
    lam = np.ones(q)
    z = np.ones(n)
    nu = 0.0
    value, bound, rounding, infeasibility = _certificate(game, x, lam, g, jac)
    iters = 0
    # on an infeasible instance the prices overflow; the finiteness test
    # below ends the loop and the residual test after it reports the instance
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while iters < OPTIMUM_MAX_ITERS and (
            infeasibility > OPTIMUM_STOP_TOL
            or bound - value > OPTIMUM_STOP_TOL * max(1.0, abs(value))
        ):
            iters += 1
            r_d = -game.fitness(x) + jac.T @ lam - z - nu
            r_p = g + s
            r_e = x.sum() - m
            mu = (s @ lam + x @ z) / (q + n)
            kkt = np.zeros((n + q + 1, n + q + 1))
            kkt[:n, :n] = -jac_f + np.tensordot(lam, hess_g, 1) + np.diag(z / x)
            kkt[:n, n:-1] = jac.T
            kkt[n:-1, :n] = jac
            kkt[n:-1, n:-1] = np.diag(-s / lam)
            kkt[:n, -1] = -1.0
            kkt[-1, :n] = 1.0

            def newton(r_s, r_x):
                rhs = np.concatenate([-r_d - r_x / x, r_s / lam - r_p, [-r_e]])
                sol = np.linalg.solve(kkt, rhs)
                dx, dl = sol[:n], sol[n:-1]
                return dx, -(r_s + s * dl) / lam, dl, -(r_x + z * dx) / x, sol[-1]

            v = np.concatenate([x, s, lam, z])
            try:
                aff = newton(s * lam, x * z)
                dv = np.concatenate(aff[:4])
                xa, sa, la, za = np.split(v + _max_step(v, dv) * dv, np.cumsum([n, q, q]))
                sigma = ((sa @ la + xa @ za) / (q + n) / mu) ** 3
                *step, dnu = newton(
                    s * lam + aff[1] * aff[2] - sigma * mu, x * z + aff[0] * aff[3] - sigma * mu
                )
                dv = np.concatenate(step)
                alpha = _central_step(v, dv, n, q)
                if alpha < OPTIMUM_SHORT_STEP:
                    # the corrector can stall near the neighbourhood's edge, or
                    # cycle; a plain centring step moves back towards the path
                    target = OPTIMUM_CENTERING * mu
                    *step, dnu = newton(s * lam - target, x * z - target)
                    dv = np.concatenate(step)
                    alpha = _central_step(v, dv, n, q)
            except np.linalg.LinAlgError:
                break
            if not (np.isfinite(dv).all() and np.isfinite(dnu)):
                break
            v += alpha * dv
            nu += alpha * dnu
            x, s, lam, z = np.split(v, np.cumsum([n, q, q]))
            g = core._constraint_values_raw(game, x)[1:]
            jac = core._constraint_jacobian_raw(game, x)[1:]
            value, bound, rounding, infeasibility = _certificate(game, x, lam, g, jac)

    # a value above the bound shows x is slightly infeasible; the larger one still bounds p*
    upper = max(bound + rounding, value)
    if not infeasibility <= OPTIMUM_FEAS_TOL:
        raise InfeasibleInstanceError(
            f"no feasible point found: constraint or mass residual {infeasibility:.3g} "
            f"after {iters} interior-point iterations (tolerance {OPTIMUM_FEAS_TOL:g})"
        )
    if not upper - value <= OPTIMUM_GAP_TOL * max(1.0, abs(value)):
        raise ConfigurationError(
            f"optimum not certified: gap {upper - value:.3g} at value {value:.12g} "
            f"after {iters} interior-point iterations (tolerance {OPTIMUM_GAP_TOL:g} relative)"
        )
    if game.potential is None:
        value = upper = None
    return CertifiedOptimum(PrimalState(x, m), value, upper, lam)


def _stable_jacobian(game: GameSpec) -> np.ndarray:
    """The fitness rule's constant Jacobian, refused unless ``check_stable_game`` passes it."""
    affine = game.fitness.affine()
    if affine is None:
        raise UnsupportedOperationError(
            "the fitness rule has no affine form f(x) = J x + f_0; a stable game with "
            "affine fitness is required"
        )
    check = core.check_stable_game(game)
    if not check.stable:
        raise ConfigurationError(
            f"fitness Jacobian has positive eigenvalue {check.worst:.3g} on the tangent space "
            "sum z = 0; a stable game is required"
        )
    return np.asarray(affine[0], dtype=float)


def _certificate(game: GameSpec, x: np.ndarray, lam: np.ndarray, g, jac) -> tuple:
    """``(value, bound, rounding, infeasibility)`` for ``optimum_solve``.

    ``value`` is ``p(x)``, or 0 without a potential, and ``bound - value``
    is the gap of ``optimum_solve``'s certificate in exact arithmetic;
    ``rounding`` covers the float error of evaluating it, so with a
    potential ``bound + rounding >= p*``.
    """
    if game.potential is None:
        value, grad_p = 0.0, game.fitness(x)
    else:
        value, grad_p = game.potential.value(x), game.potential.gradient(x)
    pull = jac.T @ lam
    grad_phi = grad_p - pull
    m = game.primal_mass
    bound = float(value - lam @ g + m * grad_phi.max() - grad_phi @ x)
    scale = abs(value) + np.abs(lam) @ np.abs(g) + m * (np.abs(grad_p).max() + np.abs(pull).max())
    infeasibility = max(float(g.max(initial=0.0)), abs(float(x.sum()) - m))
    return value, bound, OPTIMUM_ROUNDING * float(scale), infeasibility


def _central_step(v: np.ndarray, dv: np.ndarray, n: int, q: int) -> float:
    """The step along ``dv`` from ``v = (x, s, lambda, z)`` that ``optimum_solve`` takes.

    ``OPTIMUM_STEP_FRACTION`` of the step to the boundary, halved until
    every complementarity product ``s_k lambda_k`` and ``x_i z_i`` is at
    least ``OPTIMUM_NEIGHBORHOOD`` times their mean (Wright 1997, ch. 5: the
    wide neighbourhood of the central path).  Without it the iterates can
    cycle, or settle short of the optimum, with one product near zero.
    """
    alpha = OPTIMUM_STEP_FRACTION * _max_step(v, dv)
    while alpha > 1e-12:
        x, s, lam, z = np.split(v + alpha * dv, np.cumsum([n, q, q]))
        products = np.concatenate((s * lam, x * z))
        if products.min() >= OPTIMUM_NEIGHBORHOOD * products.mean():
            break
        alpha *= 0.5
    return alpha


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest ``a <= 1`` keeping ``v + a * dv`` nonnegative (``v > 0``)."""
    shrink = dv < 0
    return min(1.0, float(np.min(-v[shrink] / dv[shrink]))) if shrink.any() else 1.0


# ---------------------------------------------------------------------------
# grid oracle


def _compositions(total: int, parts: int, _cache: dict) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` summing to ``total``.

    Rows come out in ascending lexicographic order, which is what makes
    ``argmax``'s first-hit tie-break deterministic and reproducible.
    """
    key = (total, parts)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    if parts == 1:
        out = np.array([[total]], dtype=np.int64)
    else:
        blocks = []
        for first in range(total + 1):
            rest = _compositions(total - first, parts - 1, _cache)
            block = np.empty((rest.shape[0], parts), dtype=np.int64)
            block[:, 0] = first
            block[:, 1:] = rest
            blocks.append(block)
        out = np.vstack(blocks)
    _cache[key] = out
    return out


def _feasible_point(game: GameSpec, y: np.ndarray) -> bool:
    return all(con.value(y) <= FEAS_EPS for con in game.constraints)


def oracle_solve(
    game: GameSpec, resolution: int = 200, refine_iters: int = 2000, seed: int = 0
) -> OracleSolution:
    """Solve ``max p(x)`` over the feasible simplex, independently of the dynamics.

    Phase 1 enumerates every composition of ``primal_mass`` into ``n`` parts
    of size ``primal_mass / resolution`` and keeps the feasible point with
    the largest potential (ties: lexicographically smallest grid vector).
    Phase 2 refines it by mass-preserving random perturbations with a
    geometrically shrinking step, accepting only feasible improvements.  The
    reported ``gap`` is the potential variation over 64 samples of the final
    search neighborhood: a heuristic, not a bound on the optimum (for that,
    use ``optimum_solve(game).upper``).
    """
    if game.potential is None:
        raise UnsupportedOperationError("oracle needs a potential to maximize")
    if game.n > 6:
        raise ConfigurationError("grid oracle is limited to at most 6 strategies")
    if resolution < 1 or refine_iters < 0:
        raise ConfigurationError("resolution must be >= 1 and refine_iters >= 0")
    n_points = math.comb(resolution + game.n - 1, game.n - 1)
    if n_points > MAX_GRID_POINTS:
        raise ConfigurationError(
            f"grid would have {n_points} points (cap {MAX_GRID_POINTS}); lower the resolution"
        )

    counts = _compositions(resolution, game.n, {})
    X = counts * (game.primal_mass / resolution)
    feasible = np.ones(len(X), dtype=bool)
    for con in game.constraints:
        feasible &= con.value_batch(X) <= FEAS_EPS
    idx = np.flatnonzero(feasible)
    if idx.size == 0:
        raise InfeasibleInstanceError(
            f"no feasible point on the resolution-{resolution} grid; raise the resolution"
        )
    vals = game.potential.value_batch(X[idx])
    best = int(np.argmax(vals))
    x_best = np.array(X[idx[best]])
    p_best = float(vals[best])

    rng = np.random.default_rng(seed)
    step = game.primal_mass / resolution
    floor = 1e-6 * game.primal_mass
    decay = (floor / step) ** (1.0 / refine_iters) if (refine_iters and step > floor) else 1.0
    for _ in range(refine_iters):
        y = _perturb(rng, x_best, step, game.primal_mass)
        if y is not None and _feasible_point(game, y):
            p_y = game.potential.value(y)
            if p_y > p_best:
                x_best, p_best = y, p_y
        step *= decay

    gap = 0.0
    for _ in range(64):
        y = _perturb(rng, x_best, step, game.primal_mass)
        if y is not None and _feasible_point(game, y):
            gap = max(gap, abs(game.potential.value(y) - p_best))

    return OracleSolution(PrimalState(x_best, game.primal_mass), p_best, gap)


def _perturb(
    rng: np.random.Generator, x: np.ndarray, step: float, mass: float
) -> Optional[np.ndarray]:
    """Random mass-preserving move of size ``step``, clipped back onto the simplex."""
    z = rng.standard_normal(x.size)
    z -= z.mean()
    nz = np.linalg.norm(z)
    if nz < 1e-12:
        return None
    y = np.maximum(x + step * (z / nz), 0.0)
    total = y.sum()
    if total <= 0:
        return None
    return y * (mass / total)


def saddle_check(game: GameSpec, x_star: PrimalState, mu_star: DualState) -> NashGaps:
    """Exact test of ``L(x, mu*) <= L(x*, mu*) <= L(x*, mu)`` over both simplices.

    Returns ``nash_gaps(game, x_star, mu_star)``.  ``L(x*, mu)`` is linear
    in ``mu``, so its minimum sits at a vertex of the dual simplex, and
    ``L(x*, mu*) - min_mu L(x*, mu)`` is the dual gap.  The gradient of
    ``L(., mu*)`` is ``F``; when ``L(., mu*)`` is concave on the simplex its
    linearization at ``x*`` bounds ``max_x L(x, mu*) - L(x*, mu*)`` by the
    primal gap, the bound ``optimum_solve`` certifies with.  The constraints
    are convex, so the potential must be concave there: raises
    ``UnsupportedOperationError`` without a potential and, as
    ``optimum_solve`` does, for a fitness rule with no affine form, and
    ``ConfigurationError`` for a game that is not stable.
    """
    if game.potential is None:
        raise UnsupportedOperationError("saddle check needs a potential")
    _stable_jacobian(game)
    return nash_gaps(game, x_star, mu_star)
