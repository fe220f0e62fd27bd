"""Exchange fields against an independent plain-Python oracle.

The oracle rebuilds both payoff vectors from the game's data and evaluates
each population's field as the explicit double sum

    xdot_i = sum_j z_j rho(P_i - P_j) - z_i sum_j rho(P_j - P_i)

in Python floats, sharing no code with ``popdyn.dynamics``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import popdyn as pd
from popdyn import core, dynamics

from conftest import SCALAR, SQUARE, oracle_payoffs, oracle_value, random_simplex


def oracle_field(rate, shares, payoffs):
    return [
        sum(zj * rate(pi - pj) for zj, pj in zip(shares, payoffs))
        - zi * sum(rate(pj - pi) for pj in payoffs)
        for zi, pi in zip(shares, payoffs)
    ]


def check_fields(game, protocol, xv, muv):
    """Both populations' slices of the joint kernel against the oracle."""
    rate = SCALAR[protocol.name][0]
    x, mu = xv.tolist(), muv.tolist()
    F, G = oracle_payoffs(game, x, mu)
    joint = dynamics._joint_field(game, protocol, np.concatenate((xv, muv)))
    expected = {
        "primal": (joint[: game.n], oracle_field(rate, x, F), F, game.primal_mass),
        "dual": (joint[game.n :], oracle_field(rate, mu, G), G, game.dual_mass),
    }
    for name, (value, field, payoffs, mass) in expected.items():
        bound = 1e-12 * max(1.0, max(abs(p) for p in payoffs) * mass)
        assert value.shape == (len(field),)
        deviation = max(abs(v - e) for v, e in zip(value.tolist(), field))
        assert deviation <= bound, (name, deviation, bound)


def sparse_simplex(rng, dim, mass, empty):
    # a simplex state with the first ``empty`` coordinates (up to dim - 1) zeroed
    v = random_simplex(rng, dim, mass)
    v[: min(empty, dim - 1)] = 0.0
    return v * (mass / v.sum())


def generated_fitness(kind, rng, n):
    """``(fitness, potential)``: a matrix, a concave quadratic potential, or a callable."""
    if kind == "matrix":
        return pd.MatrixFitness(rng.uniform(-2.0, 2.0, (n, n))), None
    if kind == "potential":
        B = rng.uniform(-1.0, 1.0, (n, n))
        # a nonzero offset exercises the operator's constant term
        game = pd.build_quadratic_potential(-B @ B.T, rng.uniform(-1.0, 1.0, n))
        return game.fitness, game.potential
    W, d = rng.uniform(-2.0, 2.0, (n, n)), rng.uniform(-1.0, 1.0, n)
    return pd.CallableFitness(lambda x: np.sin(W @ x) + d), None


@st.composite
def generated_games(draw, kinds=("matrix",)):
    n = draw(st.integers(2, 6))
    affine = draw(st.integers(0, 3))
    quadratic = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    constraints = [
        pd.AffineConstraint(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0))
        for _ in range(affine)
    ]
    for _ in range(quadratic):
        B = rng.uniform(-1.0, 1.0, (n, draw(st.integers(1, n))))
        constraints.append(
            pd.QuadraticConstraint(B @ B.T, rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 1.0))
        )
    order = draw(st.permutations(range(len(constraints))))
    primal_mass = draw(st.floats(0.5, 3.0))
    dual_mass = draw(st.floats(0.5, 5.0))
    fitness, potential = generated_fitness(draw(st.sampled_from(kinds)), rng, n)
    game = pd.GameSpec(
        n=n,
        primal_mass=primal_mass,
        dual_mass=dual_mass,
        fitness=fitness,
        constraints=tuple(constraints[i] for i in order),
        potential=potential,
    )
    return game, rng


@settings(max_examples=150, deadline=None)
@given(
    generated=generated_games(),
    protocol=st.sampled_from([pd.smith_protocol(), SQUARE]),
    empty=st.integers(0, 3),
)
def test_fields_match_oracle_on_generated_games(generated, protocol, empty):
    game, rng = generated
    xv = sparse_simplex(rng, game.n, game.primal_mass, empty)
    muv = sparse_simplex(rng, game.q + 1, game.dual_mass, empty)
    check_fields(game, protocol, xv, muv)


def _callable_fitness_game():
    target = np.array([0.5, 0.1, 0.3, 0.1])
    return pd.GameSpec(
        n=4,
        primal_mass=2.0,
        dual_mass=3.0,
        fitness=pd.CallableFitness(lambda x: np.sin(3.0 * (target - x))),
        constraints=(
            pd.AffineConstraint(np.array([1.0, 1.0, 0.0, 0.0]), 0.8),
            pd.QuadraticConstraint(np.diag([0.0, 1.0, 1.0, 0.0]), np.zeros(4), 0.5),
        ),
    )


def _unconstrained_game():
    # q = 0: the pricing population is the null strategy alone
    return pd.GameSpec(
        n=3,
        primal_mass=1.0,
        dual_mass=2.0,
        fitness=pd.MatrixFitness(np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])),
    )


def test_fields_match_oracle_on_named_games(congestion, rps):
    games = (congestion, rps, _callable_fitness_game(), _unconstrained_game())
    for game in games:
        rng = np.random.default_rng(game.n + game.q)
        for protocol in (pd.smith_protocol(), SQUARE):
            for empty in range(3):
                for _ in range(20):
                    xv = sparse_simplex(rng, game.n, game.primal_mass, empty)
                    muv = sparse_simplex(rng, game.q + 1, game.dual_mass, empty)
                    check_fields(game, protocol, xv, muv)


def test_unconstrained_dual_field_is_exactly_zero():
    game = _unconstrained_game()
    rng = np.random.default_rng(3)
    for protocol in (pd.smith_protocol(), SQUARE):
        for _ in range(20):
            xv = random_simplex(rng, 3, 1.0)
            field = dynamics._joint_field(game, protocol, np.append(xv, 2.0))[3:]
            assert np.array_equal(field, [0.0])


def gross_flows(rate, shares, payoffs):
    # inflow plus outflow per strategy: the scale of the rounding in its net field
    return [
        sum(zj * rate(pi - pj) for zj, pj in zip(shares, payoffs))
        + zi * sum(rate(pj - pi) for pj in payoffs)
        for zi, pi in zip(shares, payoffs)
    ]


def test_lyapunov_rate_uses_each_population_protocol(congestion, rps):
    # dV/dt = Gamma_P . xdot + xdot . J xdot + Gamma_Phi . mudot, with the
    # playing population on one protocol and the pricing one on the other
    smith = pd.smith_protocol()
    for game in (congestion, rps, _callable_fitness_game()):
        rng = np.random.default_rng(7)
        for primal_protocol, dual_protocol in ((smith, SQUARE), (SQUARE, smith)):
            primal_rate, primal_integral = SCALAR[primal_protocol.name]
            dual_rate, dual_integral = SCALAR[dual_protocol.name]
            for _ in range(20):
                x = pd.PrimalState(random_simplex(rng, game.n, game.primal_mass), game.primal_mass)
                mu = pd.DualState(random_simplex(rng, game.q + 1, game.dual_mass), game.dual_mass)
                xs, ms = x.x.tolist(), mu.mu.tolist()
                F, G = oracle_payoffs(game, xs, ms)
                xdot = np.array(oracle_field(primal_rate, xs, F))
                mudot = np.array(oracle_field(dual_rate, ms, G))
                gamma_p = np.array([sum(primal_integral(fj - fi) for fj in F) for fi in F])
                gamma_phi = np.array([sum(dual_integral(gl - gk) for gl in G) for gk in G])
                jac = pd.primal_dual_payoff_jacobian(game, x, mu)
                expected = gamma_p @ xdot + xdot @ jac @ xdot + gamma_phi @ mudot
                gross_x = np.array(gross_flows(primal_rate, xs, F))
                gross_mu = np.array(gross_flows(dual_rate, ms, G))
                scale = (
                    gamma_p @ gross_x
                    + np.abs(jac).max() * gross_x.sum() ** 2
                    + np.abs(gamma_phi) @ gross_mu
                )
                got = pd.lyapunov_rate(game, primal_protocol, dual_protocol, x, mu)
                assert abs(got - expected) <= 1e-12 * max(1.0, scale)


def kernel_payoffs(game, z):
    """The field kernel's own ``(F, G)`` at ``z = (x, mu)``, read after a ``field`` call."""
    kernel = dynamics._field_kernel(game, pd.smith_protocol())
    z_hat = np.concatenate(((1.0,), z))
    kernel.field(z_hat, np.empty(z_hat.size))
    return np.concatenate((kernel.F, kernel.G))


def check_joint_payoff(game, states):
    """The payoff operator's two routes against the rule-based public evaluators.

    ``states`` is a list of ``(xv, muv)`` pairs; the stack form evaluates
    them all at once, and each of its rows is held to the field kernel's
    payoffs at that state and to the rule-based reference.
    """
    Z = np.array([np.concatenate((xv, muv)) for xv, muv in states])
    stacked = core._joint_payoff_stack(game, Z)
    assert stacked.shape == Z.shape
    # the recorded constraint values take column n, the null strategy's, as is
    assert np.all(stacked[:, game.n] == 0.0)
    for (xv, muv), z, row in zip(states, Z, stacked):
        x = pd.PrimalState(xv, game.primal_mass)
        mu = pd.DualState(muv, game.dual_mass)
        expected = np.concatenate(
            (pd.primal_dual_payoff(game, x, mu), pd.constraint_values(game, x))
        )
        got = kernel_payoffs(game, z)
        bound = 1e-12 * max(1.0, np.max(np.abs(expected)))
        for value, reference in ((got, expected), (row, expected), (row, got)):
            assert value.shape == reference.shape
            deviation = np.max(np.abs(value - reference))
            assert deviation <= bound, deviation
    # the one stored operator: read-only, 3-d exactly when a quadratic constraint
    # exists, and its null-price row (0) and constant's row (q + 1) exact zeros,
    # which give the kernel its exact-zero fields there
    H = game._payoff_homogeneous
    assert not H.flags.writeable
    quadratic = any(isinstance(con, pd.QuadraticConstraint) for con in game.constraints)
    assert (H.ndim == 3) == quadratic
    assert not H[0].any() and not H[game.q + 1].any()


@settings(max_examples=150, deadline=None)
@given(
    generated=generated_games(kinds=("matrix", "potential", "callable")),
    empty=st.integers(0, 3),
)
def test_joint_payoff_matches_rule_evaluators_on_generated_games(generated, empty):
    game, rng = generated
    states = [
        (
            sparse_simplex(rng, game.n, game.primal_mass, empty),
            sparse_simplex(rng, game.q + 1, game.dual_mass, empty),
        )
        for _ in range(5)
    ]
    check_joint_payoff(game, states)


def _quadratic_potential_game():
    # concave potential with a nonzero linear term, one affine and one quadratic cap
    return pd.build_quadratic_potential(
        -np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]),
        np.array([0.3, -0.1, 0.2]),
        (
            pd.AffineConstraint(np.array([1.0, 0.0, 1.0]), 0.7),
            pd.QuadraticConstraint(np.diag([1.0, 2.0, 0.0]), np.array([0.1, 0.0, 0.0]), 0.4),
        ),
        dual_mass=3.0,
    )


def test_joint_payoff_matches_rule_evaluators_on_named_games(congestion, rps):
    games = (
        congestion,
        rps,
        _quadratic_potential_game(),
        _callable_fitness_game(),
        _unconstrained_game(),
    )
    for game in games:
        rng = np.random.default_rng(game.n + game.q)
        for empty in range(3):
            states = [
                (
                    sparse_simplex(rng, game.n, game.primal_mass, empty),
                    sparse_simplex(rng, game.q + 1, game.dual_mass, empty),
                )
                for _ in range(20)
            ]
            check_joint_payoff(game, states)
    assert congestion._payoff_homogeneous.ndim == 2
    assert rps._payoff_homogeneous.shape == (6, 6, 4)
    # the null strategy's payoff is exactly zero, with and without constraints
    for game in (congestion, rps, _unconstrained_game()):
        z = np.concatenate((np.full(game.n, game.primal_mass / game.n), null_prices(game)))
        assert kernel_payoffs(game, z)[game.n] == 0.0


def null_prices(game):
    mu = np.zeros(game.q + 1)
    mu[0] = game.dual_mass
    return mu


def test_lyapunov_value_matches_oracle_for_each_protocol_pair(congestion, rps):
    # V = sum_i x_i sum_j A_rho(F_j - F_i) + sum_k mu_k sum_l A_phi(G_l - G_k), with
    # one protocol for both populations (one joint gap matrix) and with two
    smith = pd.smith_protocol()
    pairs = ((smith, smith), (SQUARE, SQUARE), (smith, SQUARE), (SQUARE, smith))
    for game in (congestion, rps, _callable_fitness_game(), _unconstrained_game()):
        rng = np.random.default_rng(11)
        for primal_protocol, dual_protocol in pairs:
            for _ in range(20):
                x = pd.PrimalState(random_simplex(rng, game.n, game.primal_mass), game.primal_mass)
                mu = pd.DualState(random_simplex(rng, game.q + 1, game.dual_mass), game.dual_mass)
                expected = oracle_value(game, primal_protocol, dual_protocol, x.x, mu.mu)
                got = pd.lyapunov_value(game, primal_protocol, dual_protocol, x, mu)
                assert abs(got - expected) <= 1e-12 * max(1.0, expected), (got, expected)
