"""Nash gaps, the equilibria-set report, mass bound, optimum solvers, saddle check."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popdyn as pd
from popdyn import core

from conftest import null_dual, random_simplex


def zero_potential_game(n=3):
    # fitness identically zero: every state is an equilibrium
    return pd.build_quadratic_potential(np.zeros((n, n)), np.zeros(n))


# --- Nash gaps ---


def test_equalized_payoffs_are_primal_nash(rps):
    x = pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0)
    assert pd.nash_gaps(rps, x, null_dual(rps)).primal == 0.0


def test_uniform_profile_is_not_primal_nash(congestion):
    x = pd.PrimalState(np.full(4, 0.25), mass=1.0)
    assert pd.nash_gaps(congestion, x, null_dual(congestion)).primal > 1.0


def test_null_prices_are_dual_nash_when_feasible(congestion):
    # strictly feasible profile: the null strategy is the unique best reply
    x = pd.PrimalState(np.full(4, 0.25), mass=1.0)
    assert pd.nash_gaps(congestion, x, null_dual(congestion)).dual == 0.0


def test_null_prices_are_not_dual_nash_when_violated(rps):
    # the whole dual mass 4 forgoes the violation 11/90 of the cap
    x = pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0)
    assert pd.nash_gaps(rps, x, null_dual(rps)).dual == pytest.approx(22.0 / 45.0, abs=1e-12)


def test_nash_tests_reject_nonpositive_tolerance(rps):
    x = pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0)
    with pytest.raises(pd.ConfigurationError):
        pd.in_equilibria_set(rps, x, null_dual(rps), tol=0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_the_report_refuses_a_tolerance_that_is_not_positive_and_finite(rps, tol):
    # an infinite tolerance would pass the vertex e_1, Nash gaps 2.0 and 3.6
    x = pd.PrimalState(np.array([1.0, 0.0, 0.0]), mass=1.0)
    with pytest.raises(pd.ConfigurationError, match="positive and finite"):
        pd.in_equilibria_set(rps, x, null_dual(rps), tol=tol)


# --- equilibria-set membership ---


def test_converged_endpoint_is_in_the_set(congestion, congestion_run):
    report = pd.in_equilibria_set(
        congestion, congestion_run.final_primal, congestion_run.final_dual, tol=1e-3
    )
    assert report.verdict == "in_E"
    assert report.in_set
    assert report.primal_nash_residual <= 1e-3
    assert report.dual_nash_residual <= 1e-3
    assert report.feasibility_residual <= 1e-3
    assert report.complementarity_residual <= 1e-3
    assert not hasattr(report, "saddle_violation")


def test_random_state_is_not_in_the_set(congestion):
    rng = np.random.default_rng(6)
    x = pd.PrimalState(random_simplex(rng, 4, 1.0), mass=1.0)
    mu = pd.DualState(random_simplex(rng, 9, 122.0), mass=122.0)
    report = pd.in_equilibria_set(congestion, x, mu)
    assert report.verdict == "not_in_E"
    assert not report.in_set


def test_every_state_of_a_zero_game_is_in_the_set():
    game = zero_potential_game()
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = pd.PrimalState(random_simplex(rng, 3, 1.0), mass=1.0)
        mu = pd.DualState(np.array([1.0]), mass=1.0)
        report = pd.in_equilibria_set(game, x, mu)
        assert report.verdict == "in_E"
        assert report.primal_nash_residual == 0.0
        assert report.dual_nash_residual == 0.0
        assert report.feasibility_residual == 0.0
        assert report.complementarity_residual == 0.0


def test_report_serializes_in_stable_order(congestion, congestion_run):
    report = pd.in_equilibria_set(
        congestion, congestion_run.final_primal, congestion_run.final_dual, tol=1e-3
    )
    assert list(report.as_dict()) == [
        "primal_nash_residual",
        "dual_nash_residual",
        "feasibility_residual",
        "complementarity_residual",
        "verdict",
    ]


# --- interior points and the dual mass bound ---


def test_slater_point_certifies_uniform_profile(congestion):
    sp = pd.slater_point(congestion, pd.PrimalState(np.full(4, 0.25), mass=1.0))
    assert sp.margin == pytest.approx(0.1, abs=1e-15)


def test_slater_point_rejects_boundary_points(congestion):
    x = pd.PrimalState(np.array([0.5, 0.5, 0.0, 0.0]), mass=1.0)
    with pytest.raises(pd.SlaterViolationError):
        pd.slater_point(congestion, x)


def test_slater_point_rejects_infeasible_points_with_index(rps):
    x = pd.PrimalState(np.array([0.8, 0.1, 0.1]), mass=1.0)
    with pytest.raises(pd.SlaterViolationError) as err:
        pd.slater_point(rps, x)
    assert err.value.index == 1


def test_dual_mass_bound_on_uniform_interior_point(congestion):
    sp = pd.slater_point(congestion, pd.PrimalState(np.full(4, 0.25), mass=1.0))
    bound = pd.dual_mass_bound(congestion, sp, p_star_upper=0.0)
    assert bound == pytest.approx(121.875, abs=1e-9)
    assert congestion.dual_mass >= bound


def test_dual_mass_bound_rejects_underestimated_optimum(congestion):
    sp = pd.slater_point(congestion, pd.PrimalState(np.full(4, 0.25), mass=1.0))
    # p at the interior point is -12.1875; any smaller upper bound is absurd
    with pytest.raises(pd.ConfigurationError):
        pd.dual_mass_bound(congestion, sp, p_star_upper=-13.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dual_mass_bound_rejects_non_finite_optimum_bound(congestion, value):
    sp = pd.slater_point(congestion, pd.PrimalState(np.full(4, 0.25), mass=1.0))
    with pytest.raises(pd.ConfigurationError, match="finite"):
        pd.dual_mass_bound(congestion, sp, p_star_upper=value)


def test_dual_mass_bound_needs_a_potential(rps):
    # the solver certifies rps, but with no potential it has no upper bound
    sp = pd.slater_point(rps, pd.PrimalState(np.array([0.2, 0.1, 0.7]), mass=1.0))
    with pytest.raises(pd.UnsupportedOperationError, match="potential"):
        pd.dual_mass_bound(rps, sp, pd.optimum_solve(rps).upper)


def test_dual_mass_bound_is_zero_without_constraints():
    game = zero_potential_game()
    sp = pd.slater_point(game, pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0))
    assert sp.margin == np.inf
    assert pd.dual_mass_bound(game, sp, p_star_upper=0.0) == 0.0


# --- certified interior-point optimum ---


def test_optimum_solve_is_exact_on_the_congestion_benchmark(congestion, congestion_oracle):
    sol = pd.optimum_solve(congestion)
    # x_1 and x_4 sit on their 0.4 caps; x_2 + x_3 = 0.2 splits by equal path cost
    assert np.allclose(sol.point.x, [0.4, 4.0 / 53.0, 6.6 / 53.0, 0.4], rtol=0.0, atol=1e-8)
    assert sol.value == pytest.approx(-8.909056603773585, abs=1e-8)
    assert 0.0 <= sol.upper - sol.value <= 1e-9
    assert np.all(sol.multipliers >= 0.0)
    assert sol.multipliers.sum() == pytest.approx(12.049056603773585, abs=1e-6)
    assert congestion_oracle.value <= sol.upper


def planted_program(n, seed, mass, columns, affine, ranks, grid=None):
    """A concave quadratic program on the simplex with a planted Slater point ``y``.

    ``-B B^T`` with ``columns`` columns in ``B`` is the potential's Hessian;
    ``affine`` affine constraints and one quadratic constraint per entry of
    ``ranks``, of that rank, all hold strictly at ``y``.  With ``grid``, the
    mass, ``B``, the linear terms and the constraint factors are multiples of
    ``1 / grid``, so at states on a fine enough grid every payoff is exact
    whatever the order of its sums.
    """
    rng = np.random.default_rng(seed)

    def snap(v):
        return np.round(np.asarray(v) * grid) / grid if grid else v

    mass = float(snap(mass))
    B = snap(rng.uniform(-2.0, 2.0, (n, columns)))
    y = random_simplex(rng, n, mass)
    constraints = []
    for _ in range(affine):
        a = snap(rng.uniform(-1.0, 1.0, n))
        constraints.append(pd.AffineConstraint(a, a @ y + rng.uniform(0.01, 1.0)))
    for rank in ranks:
        C = snap(rng.uniform(-1.0, 1.0, (n, rank)))
        Q, a = C @ C.T, snap(rng.uniform(-1.0, 1.0, n))
        constraints.append(pd.QuadraticConstraint(Q, a, y @ Q @ y + a @ y + rng.uniform(0.01, 1.0)))
    game = pd.build_quadratic_potential(
        -B @ B.T, snap(rng.uniform(-5.0, 5.0, n)), constraints, primal_mass=mass
    )
    return game, y


@st.composite
def planted_programs(draw, grid=None):
    n = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    mass = draw(st.floats(0.5, 3.0))
    columns = draw(st.integers(0, n))
    affine = draw(st.integers(0, 3))
    ranks = draw(st.lists(st.integers(1, n), max_size=2))
    return planted_program(n, seed, mass, columns, affine, ranks, grid)


def assert_certified(game, y, sol):
    assert pd.constraint_values(game, sol.point).max() <= 1e-9
    assert 0.0 <= sol.upper - sol.value <= 1e-8 * max(1.0, abs(sol.value))
    assert sol.upper >= game.potential.value(y)
    assert sol.multipliers.shape == (game.q,) and np.all(sol.multipliers >= 0.0)


@settings(max_examples=100, deadline=None)
@given(planted_programs())
def test_optimum_solve_certifies_generated_programs(program):
    game, y = program
    sol = pd.optimum_solve(game)
    assert_certified(game, y, sol)
    if game.n <= 4:
        try:
            grid = pd.oracle_solve(game, resolution=40, refine_iters=200, seed=0)
        except pd.InfeasibleInstanceError:
            return  # the feasible set falls between the grid points
        assert grid.value <= sol.upper


@settings(max_examples=100, deadline=None)
@given(planted_programs())
def test_the_dual_mass_bound_covers_the_optimal_prices(program):
    # the paper's sufficient condition: from any Slater point, the bound is at
    # least the total price the optimum needs
    game, y = program
    sol = pd.optimum_solve(game)
    bound = pd.dual_mass_bound(game, pd.slater_point(game, pd.PrimalState(y, game.primal_mass)), sol.upper)
    assert bound >= sol.multipliers.sum() * (1.0 - 1e-9)


@pytest.mark.parametrize(
    "draw",
    [
        # without the neighbourhood of the central path the iterates cycle:
        # constraint residual 0.0353, 0.00968, and a gap that stays at 0.823
        (9, 715291924, 0.762615102221069, 0, 0, [2, 8]),
        (12, 1439490017, 2.907565143570263, 1, 1, [1, 9]),
        (5, 3012895871, 2.6338384395600527, 1, 0, [2]),
    ],
    ids=["linear-two-quadratic", "one-affine-two-quadratic", "one-quadratic"],
)
def test_optimum_solve_certifies_programs_that_stalled_mehrotra(draw):
    game, y = planted_program(*draw)
    assert_certified(game, y, pd.optimum_solve(game))


# the rps equilibrium and its price: the cap x_1^2 + x_2^2 <= 0.1 active and
# the three discounted payoffs equal, four equations solved by plain Newton
RPS_EQUILIBRIUM = (0.313089154307, 0.044443013574, 0.642467832119)
RPS_PRICE = 2.339103347519


def test_optimum_solve_finds_the_rps_equilibrium(rps):
    # a stable game with no potential: the point and its price, certified by
    # the variational-inequality gap, and no value or upper bound
    sol = pd.optimum_solve(rps)
    assert np.allclose(sol.point.x, RPS_EQUILIBRIUM, rtol=0.0, atol=1e-9)
    assert sol.multipliers == pytest.approx([RPS_PRICE], abs=1e-9)
    assert sol.value is None and sol.upper is None
    mu = pd.DualState(np.array([rps.dual_mass - sol.multipliers[0], sol.multipliers[0]]), rps.dual_mass)
    assert max(pd.nash_gaps(rps, sol.point, mu)) <= 1e-12


def _potential_game(rule):
    return pd.GameSpec(
        n=2, primal_mass=1.0, dual_mass=1.0, fitness=pd.PotentialFitness(rule), potential=rule
    )


def _narrow_unstable_game():
    # J = -I + 1.01 v v^T curves up by 0.01 along the one tangent direction
    # v = (e_1 - e_2) / sqrt(2), which check_stable_game also finds
    v = np.zeros(12)
    v[:2] = (1.0, -1.0)
    v /= np.linalg.norm(v)
    fitness = pd.MatrixFitness(-np.eye(12) + 1.01 * np.outer(v, v))
    return pd.GameSpec(n=12, primal_mass=1.0, dual_mass=1.0, fitness=fitness)


@pytest.mark.parametrize(
    "make_game, error, message",
    [
        # built directly, past build_quadratic_potential's concavity check
        (
            lambda: _potential_game(pd.QuadraticPotential(np.eye(2), np.zeros(2))),
            pd.ConfigurationError,
            "positive eigenvalue 1 on the tangent space",
        ),
        (
            lambda: _potential_game(pd.CallablePotential(lambda x: -x @ x, lambda x: -2.0 * x)),
            pd.UnsupportedOperationError,
            "affine form",
        ),
        (
            lambda: _potential_game(
                pd.CallablePotential(
                    lambda x: -np.sum(x**4), lambda x: -4.0 * x**3, lambda x: np.diag(-12.0 * x**2)
                )
            ),
            pd.UnsupportedOperationError,
            "affine form",
        ),
        (_narrow_unstable_game, pd.ConfigurationError, "positive eigenvalue 0.01 on the tangent space"),
        (
            lambda: pd.build_quadratic_potential(
                -np.eye(2), np.zeros(2), constraints=(pd.AffineConstraint(np.zeros(2), -1.0),)
            ),
            pd.InfeasibleInstanceError,
            "residual 1 ",
        ),
        # the constraint row equals the mass row, so the Newton system turns singular
        (
            lambda: pd.build_quadratic_potential(
                -np.eye(3), np.zeros(3), constraints=(pd.AffineConstraint(np.ones(3), 0.5),)
            ),
            pd.InfeasibleInstanceError,
            "residual 0.5 ",
        ),
    ],
    ids=[
        "convex",
        "no-hessian",
        "non-constant-hessian",
        "narrow-unstable",
        "infeasible",
        "infeasible-mass",
    ],
)
def test_optimum_solve_refuses(make_game, error, message):
    with pytest.raises(error, match=message):
        pd.optimum_solve(make_game())


def sampled_worst(game, samples=200, seed=0):
    """The largest tangent curvature of ``Df`` over ``samples`` uniform draws,
    the test ``check_stable_game`` runs on a rule with no affine form."""
    n = game.n
    basis = np.linalg.qr(np.eye(n)[:, : n - 1] - 1.0 / n)[0]
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(samples):
        jac = game.fitness.jacobian(core._uniform_simplex(rng, n, game.primal_mass))
        tangent = basis.T @ jac @ basis
        worst = max(worst, float(np.linalg.eigvalsh(0.5 * (tangent + tangent.T))[-1]))
    return worst


@pytest.fixture
def jacobian_calls(monkeypatch):
    calls, jacobian = [], core._fitness_jacobian_raw

    def counting(game, xv):
        calls.append(game)
        return jacobian(game, xv)

    monkeypatch.setattr(core, "_fitness_jacobian_raw", counting)
    return calls


def _identity_game():
    # the identity rule of acceptance criterion 8: constant Jacobian, no affine form
    return pd.GameSpec(
        n=3,
        primal_mass=1.0,
        dual_mass=1.0,
        fitness=pd.CallableFitness(lambda x: x.copy(), jac=lambda x: np.eye(3)),
    )


@pytest.mark.parametrize(
    "make_game, evaluations",
    [(pd.paper_rps, 1), (_identity_game, 200), (lambda: stable_game(5, 7, 1.5, 2, True), 1)],
    ids=["rps", "identity", "generated"],
)
def test_the_stability_test_evaluates_a_constant_jacobian_once(make_game, evaluations, jacobian_calls):
    # an affine form proves the Jacobian constant, so one state is exact; a
    # rule without one is still sampled at every state
    game = make_game()
    check = pd.check_stable_game(game)
    assert len(jacobian_calls) == evaluations
    assert check.worst == sampled_worst(game)


def test_optimum_solve_reads_the_stability_test_of_an_unstable_affine_game(jacobian_calls):
    with pytest.raises(pd.ConfigurationError, match="positive eigenvalue 0.01 on the tangent space"):
        pd.optimum_solve(_narrow_unstable_game())
    assert len(jacobian_calls) == 1


# --- generated stable games without a potential ---


def stable_game(n, seed, mass, affine, quadratic, dual_mass=1.0):
    """A stable game with no potential and a planted Slater point ``y``.

    The fitness is ``f(x) = A x`` with ``A = K - B B^T - 0.1 I + c 1^T / mass``:
    ``K`` is skew-symmetric, so no potential exists, and on the simplex
    ``c 1^T / mass`` adds the constant ``c`` without changing ``z . A z`` on
    ``sum z = 0``.  ``affine`` affine constraints and, with ``quadratic``,
    one rank-1 quadratic constraint hold strictly at ``y``.
    """
    rng = np.random.default_rng(seed)
    K = rng.uniform(-2.0, 2.0, (n, n))
    B = rng.uniform(-1.0, 1.0, (n, n))
    c = rng.uniform(-1.0, 1.0, n)
    A = K - K.T - B @ B.T - 0.1 * np.eye(n) + np.outer(c, np.ones(n)) / mass
    y = random_simplex(rng, n, mass)
    constraints = []
    for _ in range(affine):
        a = rng.uniform(-1.0, 1.0, n)
        constraints.append(pd.AffineConstraint(a, a @ y + rng.uniform(0.01, 0.5)))
    if quadratic:
        v, a = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        Q = np.outer(v, v)
        constraints.append(pd.QuadraticConstraint(Q, a, y @ Q @ y + a @ y + rng.uniform(0.01, 0.5)))
    return pd.GameSpec(
        n=n,
        primal_mass=mass,
        dual_mass=dual_mass,
        fitness=pd.MatrixFitness(A),
        constraints=tuple(constraints),
    )


@st.composite
def stable_games(draw):
    return (
        draw(st.integers(2, 6)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.floats(0.5, 3.0)),
        draw(st.integers(0, 2)),
        draw(st.booleans()),
    )


def with_room_for_the_prices(draw, sol):
    """The game of ``draw`` with dual mass ``max(1, 2 sum lambda*)`` and ``(x*, mu*)`` in it."""
    lam = sol.multipliers
    mass = max(1.0, 2.0 * lam.sum())
    game = stable_game(*draw, dual_mass=mass)
    return game, pd.DualState(np.concatenate(([mass - lam.sum()], lam)), mass)


@settings(max_examples=100, deadline=None)
@given(stable_games())
def test_optimum_solve_certifies_generated_stable_games(draw):
    # the certified point is feasible and, with its prices, a Nash point of
    # the joint game
    sol = pd.optimum_solve(stable_game(*draw))
    assert sol.value is None and sol.upper is None
    assert sol.multipliers.shape == (draw[3] + draw[4],) and np.all(sol.multipliers >= 0.0)
    game, mu_star = with_room_for_the_prices(draw, sol)
    assert pd.constraint_values(game, sol.point).max() <= 1e-9
    assert max(pd.nash_gaps(game, sol.point, mu_star)) <= 1e-8


def _stable_draws(count):
    rng = np.random.default_rng(20)
    for _ in range(count):
        yield (
            int(rng.integers(2, 7)),
            int(rng.integers(0, 2**32)),
            float(rng.uniform(0.5, 3.0)),
            int(rng.integers(0, 3)),
            bool(rng.integers(0, 2)),
        )


@pytest.mark.parametrize("draw", list(_stable_draws(30)))
def test_the_dynamics_reach_the_certified_equilibrium_of_stable_games(draw, smith):
    # from the barycenter with the null dual, as the paper's runs start
    sol = pd.optimum_solve(stable_game(*draw))
    game, _ = with_room_for_the_prices(draw, sol)
    x0 = pd.PrimalState(np.full(game.n, game.primal_mass / game.n), game.primal_mass)
    traj = pd.integrate(game, smith, x0, null_dual(game), pd.SimParams(horizon=400.0))
    assert np.max(np.abs(traj.primal[-1] - sol.point.x)) <= 1e-3
    assert np.max(np.abs(traj.dual[-1][1:] - sol.multipliers), initial=0.0) <= 1e-3


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([-1e-6, -2e-9, -1e-9, 0.0, 5e-10, 1e-9, 2e-9, 1e-6, 0.3]),
)
def test_optimum_solve_refuses_exactly_the_games_the_stability_check_fails(n, seed, curvature):
    # a skew part plus a symmetric part whose top tangent eigenvalue is moved
    # to about ``curvature``, on both sides of the tolerance
    rng = np.random.default_rng(seed)
    K = rng.uniform(-2.0, 2.0, (n, n))
    B = rng.uniform(-1.0, 1.0, (n, n - 1))
    basis = np.linalg.qr(np.eye(n)[:, : n - 1] - 1.0 / n)[0]
    top = np.linalg.eigvalsh(basis.T @ (-B @ B.T) @ basis)[-1]
    A = K - K.T - B @ B.T + (curvature - top) * (basis @ basis.T)
    game = pd.GameSpec(n=n, primal_mass=1.0, dual_mass=1.0, fitness=pd.MatrixFitness(A))
    stable = pd.check_stable_game(game).stable
    try:
        pd.optimum_solve(game)
        refused = False
    except pd.ConfigurationError as exc:
        refused = "tangent space" in str(exc)
    assert refused == (not stable)



def test_optimum_solve_imports_no_scipy(tmp_path):
    env = os.environ.copy()
    package_root = str(Path(pd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    child = (
        "import sys, popdyn; popdyn.optimum_solve(popdyn.paper_congestion()); "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# --- grid oracle ---


def test_oracle_recovers_known_quadratic_optimum():
    game = pd.build_quadratic_potential(-2.0 * np.eye(2), np.zeros(2))
    sol = pd.oracle_solve(game, resolution=100, refine_iters=200, seed=0)
    assert sol.value == pytest.approx(-0.5, abs=1e-12)
    assert np.allclose(sol.point.x, [0.5, 0.5], atol=1e-6)
    assert sol.gap <= 1e-6


def test_oracle_recovers_interior_target():
    # p = -|x|^2 + 2 target . x peaks exactly at the target point
    target = np.array([0.3, 0.7])
    game = pd.build_quadratic_potential(-2.0 * np.eye(2), 2.0 * target)
    sol = pd.oracle_solve(game, resolution=100, refine_iters=200, seed=0)
    assert np.allclose(sol.point.x, target, atol=1e-6)
    assert sol.value == pytest.approx(float(target @ target), abs=1e-12)


def test_oracle_solves_the_congestion_benchmark(congestion, congestion_oracle):
    sol = congestion_oracle
    assert sol.value == pytest.approx(-8.9090625, abs=1e-4)
    assert np.allclose(sol.point.x, [0.4, 0.075, 0.125, 0.4], atol=1e-3)
    assert sol.gap <= 1e-4
    g = pd.constraint_values(congestion, sol.point)
    assert g.max() <= 1e-9


def test_oracle_is_deterministic(congestion):
    a = pd.oracle_solve(congestion, resolution=40, refine_iters=100, seed=3)
    b = pd.oracle_solve(congestion, resolution=40, refine_iters=100, seed=3)
    assert np.array_equal(a.point.x, b.point.x)
    assert a.value == b.value
    assert a.gap == b.gap


def test_oracle_requires_a_potential(rps):
    with pytest.raises(pd.UnsupportedOperationError):
        pd.oracle_solve(rps)


def test_oracle_rejects_oversized_grids():
    game = pd.build_quadratic_potential(-np.eye(6), np.zeros(6))
    with pytest.raises(pd.ConfigurationError):
        pd.oracle_solve(game, resolution=200)
    # a coarse grid on the same game is fine
    sol = pd.oracle_solve(game, resolution=12, refine_iters=50, seed=0)
    assert sol.value <= 0.0


def test_oracle_reports_infeasible_instances():
    con = pd.AffineConstraint(np.zeros(2), -1.0)  # g = 1 > 0 everywhere
    game = pd.build_quadratic_potential(-np.eye(2), np.zeros(2), constraints=(con,))
    with pytest.raises(pd.InfeasibleInstanceError):
        pd.oracle_solve(game, resolution=20, refine_iters=0)


# --- saddle check ---


def test_saddle_check_holds_at_converged_endpoint(congestion, congestion_run):
    check = pd.saddle_check(congestion, congestion_run.final_primal, congestion_run.final_dual)
    assert check.primal <= 1e-6
    assert check.dual <= 1e-6


def test_saddle_check_flags_a_non_saddle(congestion):
    # the uniform profile maximizes nothing: other profiles beat it
    x = pd.PrimalState(np.full(4, 0.25), mass=1.0)
    check = pd.saddle_check(congestion, x, null_dual(congestion))
    assert check.primal > 1.0


def test_saddle_check_dual_side_is_exact_at_a_vertex(congestion):
    # at x = e_1 the largest constraint value is 0.6, and the worst price
    # puts the whole dual mass 122 on it
    x = pd.PrimalState(np.array([1.0, 0.0, 0.0, 0.0]), mass=1.0)
    assert pd.constraint_values(congestion, x).max() == pytest.approx(0.6, abs=1e-15)
    check = pd.saddle_check(congestion, x, null_dual(congestion))
    assert check.dual == pytest.approx(73.2, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(planted_programs(), st.integers(0, 2**32 - 1))
def test_saddle_check_matches_dual_vertices_and_bounds_primal_side(program, seed):
    # the dual side is the worst over the q + 1 vertices of the dual simplex;
    # the primal side bounds L(x, mu*) - L(x*, mu*) at every x
    game, _ = program
    rng = np.random.default_rng(seed)
    x_star = pd.PrimalState(random_simplex(rng, game.n, game.primal_mass), game.primal_mass)
    mu_star = pd.DualState(random_simplex(rng, game.q + 1, game.dual_mass), game.dual_mass)
    check = pd.saddle_check(game, x_star, mu_star)
    l_star = pd.lagrangian(game, x_star, mu_star)
    slack = 1e-9 * max(1.0, abs(l_star))
    worst_dual = max(
        l_star - pd.lagrangian(game, x_star, pd.DualState(vertex, game.dual_mass))
        for vertex in game.dual_mass * np.eye(game.q + 1)
    )
    assert check.dual == pytest.approx(worst_dual, abs=slack)
    for _ in range(200):
        x = pd.PrimalState(random_simplex(rng, game.n, game.primal_mass), game.primal_mass)
        assert pd.lagrangian(game, x, mu_star) - l_star <= check.primal + slack


def test_saddle_check_requires_a_potential(rps):
    x = pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0)
    with pytest.raises(pd.UnsupportedOperationError):
        pd.saddle_check(rps, x, null_dual(rps))


@pytest.mark.parametrize(
    "rule, error, message",
    [
        # convex: at the barycenter the gradient is uniform, so the
        # linearization bound reads 0 although a vertex gives L = 0.5 > 0.25
        (
            pd.QuadraticPotential(np.eye(2), np.zeros(2)),
            pd.ConfigurationError,
            "positive eigenvalue 1 on the tangent space",
        ),
        (
            pd.CallablePotential(lambda x: -x @ x, lambda x: -2.0 * x),
            pd.UnsupportedOperationError,
            "affine form",
        ),
    ],
    ids=["convex", "no-hessian"],
)
def test_saddle_check_refuses_what_its_bound_does_not_cover(rule, error, message):
    game = _potential_game(rule)
    x = pd.PrimalState(np.full(2, 0.5), mass=1.0)
    with pytest.raises(error, match=message):
        pd.saddle_check(game, x, null_dual(game))


# --- Nash gaps on generated programs ---


# units of mass a grid state is made of: with the data of
# ``planted_program(..., grid=8)`` (at most 12 strategies) every payoff at
# a grid state is a short sum of short products, so it is exact
STATE_GRID = 64


def grid_simplex(rng, dim, mass):
    """A random state whose shares are multiples of ``mass / STATE_GRID``, often exactly 0."""
    return rng.multinomial(STATE_GRID, random_simplex(rng, dim, 1.0)) * (mass / STATE_GRID)


def planted_rest_point(game, rng):
    """A program of ``game``'s shape with a rest point ``(x, mu)`` of the dynamics planted in it.

    The strategies of a random support are copies of its first one, so their
    payoffs tie at every state.  ``x`` spreads the mass over the support and
    ``mu`` puts the dual mass on a largest constraint value; lowering the
    linear terms off the support makes the tie the best payoff.
    """
    n = game.n
    chosen = rng.random(n) < 0.5
    chosen[rng.integers(n)] = True
    support = np.flatnonzero(chosen)
    idx = np.arange(n)
    idx[support] = support[0]
    copy = np.ix_(idx, idx)
    constraints = [
        pd.AffineConstraint(con.a[idx], con.b)
        if isinstance(con, pd.AffineConstraint)
        else pd.QuadraticConstraint(con.Q[copy], con.a[idx], con.c)
        for con in game.constraints
    ]

    def build(c):
        return pd.build_quadratic_potential(
            game.potential.quad[copy], c, constraints, game.primal_mass, game.dual_mass
        )

    c = game.potential.linear[idx]
    xv = np.zeros(n)
    xv[support] = grid_simplex(rng, support.size, game.primal_mass)
    x = pd.PrimalState(xv, game.primal_mass)
    copied = build(c)
    muv = np.zeros(game.q + 1)
    muv[int(np.argmax(pd.constraint_values(copied, x)))] = game.dual_mass
    mu = pd.DualState(muv, game.dual_mass)
    F = pd.primal_dual_payoff(copied, x, mu)
    c = c - ~chosen * (np.maximum(F - F[support[0]], 0.0) + rng.integers(1, 9, n) / 8)
    return build(c), x, mu


def random_states(game, rng, count):
    for _ in range(count):
        yield (
            pd.PrimalState(grid_simplex(rng, game.n, game.primal_mass), game.primal_mass),
            pd.DualState(grid_simplex(rng, game.q + 1, game.dual_mass), game.dual_mass),
        )


@settings(max_examples=50, deadline=None)
@given(planted_programs(), st.integers(0, 2**32 - 1))
def test_nash_gaps_are_nonnegative_and_bound_the_complementarity(program, seed):
    # each gap sums shares times shortfalls, all nonnegative; g_0 = 0 makes
    # max g >= 0, so each mu_k * max(-g_k, 0) is at most one term of the dual gap
    game, _ = program
    for x, mu in random_states(game, np.random.default_rng(seed), 20):
        gaps = pd.nash_gaps(game, x, mu)
        report = pd.in_equilibria_set(game, x, mu)
        assert gaps.primal >= 0.0 and gaps.dual >= 0.0
        assert (report.primal_nash_residual, report.dual_nash_residual) == gaps
        assert report.complementarity_residual <= gaps.dual


@settings(max_examples=50, deadline=None)
@given(planted_programs(), st.integers(0, 2**32 - 1))
def test_saddle_check_is_the_nash_gaps_on_concave_programs(program, seed):
    game, _ = program
    for x, mu in random_states(game, np.random.default_rng(seed), 5):
        assert pd.saddle_check(game, x, mu) == pd.nash_gaps(game, x, mu)


@settings(max_examples=50, deadline=None)
@given(planted_programs(grid=8), st.integers(0, 2**32 - 1))
def test_fields_vanish_exactly_where_the_nash_gaps_do(program, seed):
    # on the grid the payoff operator of the dynamics and the rule objects
    # the gaps read give the same payoffs bitwise, ties included
    rng = np.random.default_rng(seed)
    game, x0, mu0 = planted_rest_point(program[0], rng)
    smith = pd.smith_protocol()
    for k, (x, mu) in enumerate([(x0, mu0), *random_states(game, rng, 10)]):
        gaps = pd.nash_gaps(game, x, mu)
        primal_rest = bool(np.all(pd.primal_field(game, smith, x, mu) == 0.0))
        dual_rest = bool(np.all(pd.dual_field(game, smith, x, mu) == 0.0))
        assert primal_rest == (gaps.primal == 0.0)
        assert dual_rest == (gaps.dual == 0.0)
        if k == 0:
            assert primal_rest and dual_rest
