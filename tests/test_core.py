"""State containers, constraints, potentials, fitness rules, game wiring."""

import math

import numpy as np
import pytest

import popdyn as pd
from popdyn.core import FD_STEP

from conftest import null_dual, random_simplex


# --- simplex states ---


def test_primal_state_accepts_exact_mass():
    s = pd.PrimalState(np.array([0.25, 0.75]), mass=1.0)
    assert s.n == 2
    assert s.x.sum() == 1.0


def test_primal_state_arrays_are_frozen():
    s = pd.PrimalState(np.array([0.5, 0.5]), mass=1.0)
    with pytest.raises(ValueError):
        s.x[0] = 2.0


def test_primal_state_rejects_negative_share():
    with pytest.raises(pd.ConfigurationError):
        pd.PrimalState(np.array([1.2, -0.2]), mass=1.0)


def test_primal_state_rejects_mass_mismatch():
    with pytest.raises(pd.ConfigurationError):
        pd.PrimalState(np.array([0.5, 0.5]), mass=2.0)


def test_primal_state_rejects_nonfinite():
    with pytest.raises(pd.ConfigurationError):
        pd.PrimalState(np.array([np.nan, 1.0]), mass=1.0)


def test_primal_state_tolerates_tiny_mass_drift():
    # drift below the simplex tolerance is accepted as-is
    s = pd.PrimalState(np.array([0.5, 0.5 + 2e-10]), mass=1.0)
    assert s.x[1] == 0.5 + 2e-10


def test_dual_state_counts_real_strategies():
    mu = pd.DualState(np.array([3.0, 1.0, 0.0]), mass=4.0)
    assert mu.q == 2


def test_dual_state_requires_positive_mass():
    with pytest.raises(pd.ConfigurationError):
        pd.DualState(np.array([0.0]), mass=0.0)


# --- constraints ---


def test_affine_constraint_value_and_gradient():
    c = pd.AffineConstraint(np.array([1.0, 0.0, 1.0]), 0.4)
    x = np.array([0.25, 0.5, 0.25])
    assert c.value(x) == pytest.approx(0.1)
    assert np.array_equal(c.gradient(x), np.array([1.0, 0.0, 1.0]))
    assert np.count_nonzero(c.hessian(x)) == 0


def test_quadratic_constraint_value_gradient_hessian():
    Q = np.diag([1.0, 1.0, 0.0])
    c = pd.QuadraticConstraint(Q, np.zeros(3), 0.1)
    x = np.array([0.3, 0.1, 0.6])
    assert c.value(x) == pytest.approx(0.3**2 + 0.1**2 - 0.1)
    assert np.allclose(c.gradient(x), 2 * Q @ x)
    assert np.array_equal(c.hessian(x), 2 * Q)


def test_quadratic_constraint_batch_matches_loop():
    Q = np.diag([1.0, 1.0, 0.0])
    c = pd.QuadraticConstraint(Q, np.array([0.1, 0.0, -0.2]), 0.1)
    rng = np.random.default_rng(0)
    pts = rng.random((50, 3))
    batch = c.value_batch(pts)
    for k in range(50):
        assert batch[k] == pytest.approx(c.value(pts[k]), abs=1e-14)


def test_quadratic_constraint_rejects_asymmetric_matrix():
    with pytest.raises(pd.ConfigurationError):
        pd.QuadraticConstraint(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2), 1.0)


def test_quadratic_constraint_rejects_concave_quadratic():
    # convexity keeps the feasible set convex; a negative eigenvalue is refused
    with pytest.raises(pd.ConfigurationError):
        pd.QuadraticConstraint(-np.eye(2), np.zeros(2), 1.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "field, build",
    [
        ("affine constraint a", lambda: pd.AffineConstraint([1.0, NAN], 0.5)),
        ("affine constraint b", lambda: pd.AffineConstraint([1.0, 0.0], INF)),
        ("quadratic constraint Q", lambda: pd.QuadraticConstraint(np.diag([1.0, INF]), [0.0, 0.0], 0.5)),
        ("quadratic constraint a", lambda: pd.QuadraticConstraint(np.eye(2), [NAN, 0.0], 0.5)),
        ("quadratic constraint c", lambda: pd.QuadraticConstraint(np.eye(2), np.zeros(2), NAN)),
        ("potential matrix H", lambda: pd.QuadraticPotential(np.diag([-1.0, NAN]), np.zeros(2))),
        ("potential vector c", lambda: pd.QuadraticPotential(-np.eye(2), [0.0, -INF])),
        ("incidence", lambda: pd.CongestionPotential([[1.0, NAN]], [1.0])),
        ("edge weights", lambda: pd.CongestionPotential([[1.0, 1.0]], [INF])),
        ("payoff matrix", lambda: pd.MatrixFitness([[0.0, INF], [1.0, 0.0]])),
    ],
)
def test_constructors_refuse_non_finite_data(field, build):
    with pytest.raises(pd.ConfigurationError, match=f"^{field} has non-finite entries$"):
        build()


@pytest.mark.parametrize(
    "field, build",
    [
        ("affine constraint b", lambda: pd.AffineConstraint([1.0, 0.0], [1.0, 2.0])),
        ("quadratic constraint c", lambda: pd.QuadraticConstraint(np.eye(2), np.zeros(2), [[0.5]])),
    ],
)
def test_constructors_refuse_non_scalar_bounds(field, build):
    with pytest.raises(pd.ConfigurationError, match=f"^{field} must be a number$"):
        build()


# --- potentials ---


def test_congestion_potential_single_road_closed_form():
    # one road of weight 2 used by the only strategy: p(x) = -x^2, p'(x) = -2x
    pot = pd.CongestionPotential(np.array([[1.0]]), np.array([2.0]))
    x = np.array([0.7])
    assert pot.value(x) == pytest.approx(-0.49)
    assert pot.gradient(x) == pytest.approx(np.array([-1.4]))
    assert pot.hessian(x) == pytest.approx(np.array([[-2.0]]))


def test_congestion_potential_gradient_matches_finite_differences(congestion):
    pot = congestion.potential
    rng = np.random.default_rng(3)
    x = random_simplex(rng, congestion.n, 1.0)
    grad = pot.gradient(x)
    for i in range(congestion.n):
        e = np.zeros(congestion.n)
        e[i] = FD_STEP
        fd = (pot.value(x + e) - pot.value(x - e)) / (2 * FD_STEP)
        assert grad[i] == pytest.approx(fd, abs=1e-6)


def test_congestion_potential_batch_matches_loop(congestion):
    pot = congestion.potential
    rng = np.random.default_rng(4)
    pts = np.array([random_simplex(rng, congestion.n, 1.0) for _ in range(40)])
    batch = pot.value_batch(pts)
    for k in range(40):
        assert batch[k] == pytest.approx(pot.value(pts[k]), abs=1e-12)


def test_quadratic_potential_value_and_gradient():
    H = -np.eye(2)
    pot = pd.QuadraticPotential(H, np.array([1.0, 0.0]))
    x = np.array([0.4, 0.6])
    assert pot.value(x) == pytest.approx(0.5 * x @ H @ x + x[0])
    assert np.allclose(pot.gradient(x), H @ x + np.array([1.0, 0.0]))
    assert np.array_equal(pot.hessian(x), H)


# --- fitness rules ---


def test_matrix_fitness_is_linear_payoff():
    A = np.array([[0.0, -1.0, 2.0], [2.0, 0.0, -1.0], [-1.0, 2.0, 0.0]])
    f = pd.MatrixFitness(A)
    x = np.array([0.5, 0.3, 0.2])
    assert np.allclose(f(x), np.array([0.1, 0.8, 0.1]))
    assert np.array_equal(f.jacobian(x), A)


def test_matrix_fitness_jacobian_returns_a_copy():
    A = np.eye(2)
    f = pd.MatrixFitness(A)
    jac = f.jacobian(np.array([0.5, 0.5]))
    jac[0, 0] = 99.0
    assert f.jacobian(np.array([0.5, 0.5]))[0, 0] == 1.0


def test_potential_fitness_equals_potential_gradient(congestion):
    x = np.array([0.25, 0.25, 0.25, 0.25])
    assert np.array_equal(congestion.fitness(x), congestion.potential.gradient(x))


# --- game spec: construction and validation ---


def test_game_spec_requires_two_strategies():
    with pytest.raises(pd.ConfigurationError):
        pd.GameSpec(n=1, primal_mass=1.0, dual_mass=1.0, fitness=pd.MatrixFitness(np.zeros((1, 1))))


def test_game_spec_rejects_fitness_shape_mismatch():
    with pytest.raises(pd.ConfigurationError):
        pd.GameSpec(n=3, primal_mass=1.0, dual_mass=1.0, fitness=pd.MatrixFitness(np.zeros((2, 2))))


def test_game_spec_rejects_potential_fitness_mismatch():
    # claimed potential must actually generate the fitness
    pot = pd.QuadraticPotential(-np.eye(2), np.zeros(2))
    wrong = pd.MatrixFitness(np.eye(2))
    with pytest.raises(pd.ConfigurationError):
        pd.GameSpec(n=2, primal_mass=1.0, dual_mass=1.0, fitness=wrong, potential=pot)


@pytest.mark.parametrize(
    "start", [pd.PrimalState(np.full(2, 0.5), mass=1.0), pd.PrimalState(np.full(3, 0.5), mass=1.5)]
)
def test_game_spec_rejects_start_of_another_population(start):
    with pytest.raises(pd.ConfigurationError):
        pd.GameSpec(
            n=3, primal_mass=1.0, dual_mass=1.0, fitness=pd.MatrixFitness(np.eye(3)), start=start
        )


def test_game_spec_counts_constraints(congestion, rps):
    assert congestion.q == 8
    assert rps.q == 1


# --- game-level operations ---

# hand-computed road loads at the uniform profile: each strategy carries 0.25,
# so the per-road loads are 0.25/0.5/0.75 depending on how many strategies
# share the road; values below follow from the listed weights and capacities
UNIFORM = np.array([0.25, 0.25, 0.25, 0.25])
UNIFORM_FITNESS = np.array([-11.75, -32.75, -31.75, -21.25])
UNIFORM_CONSTRAINTS = np.array([-0.15, -0.15, -0.15, -0.15, -0.1, -0.1, -0.1, -0.15])
UNIFORM_POTENTIAL = -12.1875


def test_congestion_fitness_at_uniform_profile(congestion):
    x = pd.PrimalState(UNIFORM, mass=1.0)
    assert np.allclose(pd.fitness(congestion, x), UNIFORM_FITNESS, atol=1e-12)


def test_congestion_potential_at_uniform_profile(congestion):
    x = pd.PrimalState(UNIFORM, mass=1.0)
    assert pd.potential(congestion, x) == pytest.approx(UNIFORM_POTENTIAL, abs=1e-12)


def test_constraint_values_lead_with_exact_zero(congestion):
    x = pd.PrimalState(UNIFORM, mass=1.0)
    g = pd.constraint_values(congestion, x)
    assert g.shape == (9,)
    assert g[0] == 0.0
    assert np.allclose(g[1:], UNIFORM_CONSTRAINTS, atol=1e-12)


def test_constraint_values_rejects_foreign_state(congestion, rps):
    x = pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0)
    with pytest.raises(pd.ConfigurationError):
        pd.constraint_values(congestion, x)
    mu = null_dual(congestion)
    with pytest.raises(pd.ConfigurationError):
        pd.primal_dual_payoff(rps, x, mu)


def test_constraint_jacobian_null_row_is_zero(congestion):
    x = pd.PrimalState(UNIFORM, mass=1.0)
    jac = pd.constraint_jacobian(congestion, x)
    assert jac.shape == (9, 4)
    assert np.count_nonzero(jac[0]) == 0
    # each affine row is the 0/1 usage pattern of one road
    assert set(np.unique(jac[1:])) <= {0.0, 1.0}


def test_constraint_jacobian_returns_a_copy(congestion):
    x = pd.PrimalState(UNIFORM, mass=1.0)
    jac = pd.constraint_jacobian(congestion, x)
    jac[1, 0] = 123.0
    assert pd.constraint_jacobian(congestion, x)[1, 0] != 123.0


def test_quadratic_constraint_jacobian_row(rps):
    x = pd.PrimalState(np.array([0.5, 0.3, 0.2]), mass=1.0)
    jac = pd.constraint_jacobian(rps, x)
    assert np.allclose(jac[1], np.array([1.0, 0.6, 0.0]))


def test_primal_dual_payoff_with_null_dual_is_fitness_bitwise(congestion):
    x = pd.PrimalState(UNIFORM, mass=1.0)
    raw = pd.fitness(congestion, x)
    shifted = pd.primal_dual_payoff(congestion, x, null_dual(congestion))
    assert np.array_equal(raw, shifted)


def test_primal_dual_payoff_subtracts_priced_constraints(congestion):
    x = pd.PrimalState(UNIFORM, mass=1.0)
    mu_vec = np.zeros(9)
    mu_vec[0] = 120.0
    mu_vec[3] = 2.0
    mu = pd.DualState(mu_vec, mass=122.0)
    expected = pd.fitness(congestion, x) - pd.constraint_jacobian(congestion, x).T @ mu_vec
    got = pd.primal_dual_payoff(congestion, x, mu)
    assert np.allclose(got, expected, atol=1e-12)


def test_fitness_jacobian_matches_finite_differences(congestion):
    rng = np.random.default_rng(9)
    x = pd.PrimalState(random_simplex(rng, 4, 1.0), mass=1.0)
    jac = pd.fitness_jacobian(congestion, x)
    for j in range(4):
        e = np.zeros(4)
        e[j] = FD_STEP
        hi = congestion.fitness(x.x + e)
        lo = congestion.fitness(x.x - e)
        assert np.allclose(jac[:, j], (hi - lo) / (2 * FD_STEP), atol=1e-6)


def test_fitness_jacobian_falls_back_to_finite_differences():
    game = pd.GameSpec(
        n=2,
        primal_mass=1.0,
        dual_mass=1.0,
        fitness=pd.CallableFitness(lambda x: np.array([x[0] ** 2, -x[1]])),
    )
    x = pd.PrimalState(np.array([0.4, 0.6]), mass=1.0)
    jac = pd.fitness_jacobian(game, x)
    assert np.allclose(jac, np.array([[0.8, 0.0], [0.0, -1.0]]), atol=1e-6)


def test_payoff_jacobian_includes_constraint_curvature(rps):
    x = pd.PrimalState(np.array([0.5, 0.3, 0.2]), mass=1.0)
    mu = pd.DualState(np.array([3.0, 1.0]), mass=4.0)
    base = pd.fitness_jacobian(rps, x)
    shifted = pd.primal_dual_payoff_jacobian(rps, x, mu)
    assert np.allclose(shifted, base - 1.0 * 2 * np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_payoff_jacobian_unchanged_for_affine_constraints(congestion):
    x = pd.PrimalState(UNIFORM, mass=1.0)
    mu_vec = np.full(9, 122.0 / 9)
    mu = pd.DualState(mu_vec, mass=122.0)
    assert np.array_equal(
        pd.primal_dual_payoff_jacobian(congestion, x, mu),
        pd.fitness_jacobian(congestion, x),
    )


def test_lagrangian_is_potential_minus_priced_violations(congestion):
    x = pd.PrimalState(UNIFORM, mass=1.0)
    mu_vec = np.zeros(9)
    mu_vec[0] = 121.0
    mu_vec[5] = 1.0
    mu = pd.DualState(mu_vec, mass=122.0)
    g = pd.constraint_values(congestion, x)
    expected = UNIFORM_POTENTIAL - 1.0 * g[5]
    assert pd.lagrangian(congestion, x, mu) == pytest.approx(expected, abs=1e-12)


def test_lagrangian_without_potential_is_refused(rps):
    x = pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0)
    with pytest.raises(pd.UnsupportedOperationError):
        pd.lagrangian(rps, x, null_dual(rps))


# --- stability check ---


def test_stable_game_check_accepts_cyclic_matrix_game(rps):
    check = pd.check_stable_game(rps, samples=200, seed=0)
    assert check.stable
    # on tangent directions z with sum 0: z.(Az) = -|z|^2/2, so unit
    # directions all give exactly -1/2
    assert check.worst == pytest.approx(-0.5, abs=1e-9)


def test_stable_game_check_rejects_identity_fitness():
    game = pd.GameSpec(
        n=3,
        primal_mass=1.0,
        dual_mass=1.0,
        fitness=pd.CallableFitness(lambda x: x.copy(), jac=lambda x: np.eye(3)),
    )
    check = pd.check_stable_game(game, samples=200, seed=0)
    assert not check.stable
    assert check.worst > 0.5


def test_stable_game_check_finds_a_narrow_unstable_direction():
    # J = -I + 1.01 v v^T curves up by 0.01 along the one tangent direction
    # v = (e_1 - e_2) / sqrt(2) and down by 1 along every other
    v = np.zeros(12)
    v[:2] = (1.0, -1.0)
    v /= np.linalg.norm(v)
    game = pd.GameSpec(
        n=12,
        primal_mass=1.0,
        dual_mass=1.0,
        fitness=pd.MatrixFitness(-np.eye(12) + 1.01 * np.outer(v, v)),
    )
    check = pd.check_stable_game(game, samples=200, seed=0)
    assert not check.stable
    assert check.worst == pytest.approx(0.01, abs=1e-12)
