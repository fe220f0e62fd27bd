"""Quadrature, the candidate function V, its rate, and trajectory audits."""

import math

import numpy as np
import pytest

import popdyn as pd

from conftest import SQUARE, null_dual, oracle_value, random_simplex
from quadrature import QuadratureError, adaptive_simpson


# --- adaptive quadrature ---


def test_simpson_integrates_polynomials():
    assert adaptive_simpson(lambda t: t * t, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert adaptive_simpson(lambda t: t**3 - t, -1.0, 2.0) == pytest.approx(2.25, abs=1e-12)


def test_simpson_integrates_transcendentals():
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)
    assert adaptive_simpson(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-10)


def test_simpson_handles_reversed_and_empty_ranges():
    assert adaptive_simpson(lambda t: t * t, 1.0, 0.0) == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert adaptive_simpson(math.exp, 2.0, 2.0) == 0.0


def test_simpson_integrates_a_kinked_rate():
    # integrand with a kink at zero, like the positive-part rate
    got = adaptive_simpson(lambda t: max(t, 0.0), -1.0, 1.0)
    assert got == pytest.approx(0.5, abs=1e-10)


def test_simpson_rejects_nonfinite_integrands():
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda t: math.nan, 0.0, 1.0)


def test_simpson_reports_depth_exhaustion():
    # a noisy integrand never lets the panel estimates agree, so the
    # recursion must give up at its depth limit
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda t: rng.random(), 0.0, 1.0)


# --- the function V ---


def test_value_closed_form_for_constant_payoffs():
    # two strategies with constant payoffs 0 and 1: the only positive gap
    # contributes max(1,0)^2/2 = 1/2, weighted by the mass on the worse
    # strategy, so V = x_0 / 2
    game = pd.GameSpec(
        n=2,
        primal_mass=1.0,
        dual_mass=1.0,
        fitness=pd.MatrixFitness(np.array([[0.0, 0.0], [1.0, 1.0]])),
    )
    smith = pd.smith_protocol()
    x = pd.PrimalState(np.array([0.3, 0.7]), mass=1.0)
    mu = pd.DualState(np.array([1.0]), mass=1.0)
    assert pd.lyapunov_value(game, smith, smith, x, mu) == pytest.approx(0.15, abs=1e-12)


def test_value_dual_term_prices_violation(rps, smith):
    # equalized primal payoffs at the barycenter kill the primal term; the
    # violated cap leaves g_1 = 2/9 - 1/10 = 11/90 against the idle prices
    x = pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0)
    mu = null_dual(rps)
    expected = 4.0 * (11.0 / 90.0) ** 2 / 2.0
    assert pd.lyapunov_value(rps, smith, smith, x, mu) == pytest.approx(expected, abs=1e-12)


def test_value_is_nonnegative_at_random_states(congestion, rps, smith):
    for game in (congestion, rps):
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = pd.PrimalState(random_simplex(rng, game.n, game.primal_mass), game.primal_mass)
            mu = pd.DualState(random_simplex(rng, game.q + 1, game.dual_mass), game.dual_mass)
            assert pd.lyapunov_value(game, smith, smith, x, mu) >= -1e-12


# --- the rate along the dynamics ---


def test_rate_is_nonpositive_at_random_states(congestion, rps, smith):
    for game in (congestion, rps):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = pd.PrimalState(random_simplex(rng, game.n, game.primal_mass), game.primal_mass)
            mu = pd.DualState(random_simplex(rng, game.q + 1, game.dual_mass), game.dual_mass)
            assert pd.lyapunov_rate(game, smith, smith, x, mu) <= 1e-9


def test_rate_matches_directional_difference(rps, smith):
    # independent check of the assembled rate: step the state a tiny amount
    # along the field and difference V
    rng = np.random.default_rng(41)
    delta = 1e-6
    for _ in range(20):
        x = pd.PrimalState(random_simplex(rng, 3, 1.0), mass=1.0)
        mu = pd.DualState(random_simplex(rng, 2, 4.0), mass=4.0)
        rate = pd.lyapunov_rate(rps, smith, smith, x, mu)
        fx = pd.primal_field(rps, smith, x, mu)
        fmu = pd.dual_field(rps, smith, x, mu)
        ahead = pd.lyapunov_value(
            rps,
            smith,
            smith,
            pd.PrimalState(x.x + delta * fx, mass=1.0),
            pd.DualState(mu.mu + delta * fmu, mass=4.0),
        )
        here = pd.lyapunov_value(rps, smith, smith, x, mu)
        assert (ahead - here) / delta == pytest.approx(rate, rel=1e-3, abs=1e-6)


def test_rate_vanishes_at_converged_endpoint(congestion, congestion_run, smith):
    rate = pd.lyapunov_rate(
        congestion, smith, smith, congestion_run.final_primal, congestion_run.final_dual
    )
    assert abs(rate) <= 1e-9


# --- trajectory audit ---


def test_audit_confirms_decrease_on_converged_run(congestion, congestion_run, smith):
    audit = pd.monotonicity_audit(congestion, smith, smith, congestion_run)
    assert audit.violation_steps == ()
    assert audit.fraction_nonincreasing == 1.0
    assert audit.max_increase <= 1e-8
    assert audit.nonnegativity_ok
    # with the recording's protocol the audit evaluates V over the same
    # chunks and payoff stacks as the recording, so it reads the same bits
    assert np.array_equal(audit.values, congestion_run.lyapunov)
    # and a sample of rows against the plain-Python double sum
    for i in np.linspace(0, len(congestion_run) - 1, 50).astype(int):
        expected = oracle_value(
            congestion, smith, smith, congestion_run.primal[i], congestion_run.dual[i]
        )
        assert abs(audit.values[i] - expected) <= 1e-12 * max(1.0, abs(expected)), i


def test_audit_evaluates_each_population_protocol_across_chunks(
    congestion, rps, smith, monkeypatch
):
    # a tiny chunk splits the short runs into many chunks; the audit then
    # evaluates V for protocols other than the recording's, per population
    monkeypatch.setattr(pd.dynamics, "DIAGNOSTICS_CHUNK", 50)
    pairs = ((smith, SQUARE), (SQUARE, smith))
    starts = (
        (rps, pd.PrimalState(np.full(3, 1.0 / 3.0), 1.0)),
        (congestion, pd.sample_simplex(congestion.n, congestion.primal_mass, seed=2)),
    )
    for game, x0 in starts:
        traj = pd.integrate(game, smith, x0, null_dual(game), pd.SimParams(horizon=0.5, step=0.01))
        assert np.array_equal(pd.monotonicity_audit(game, smith, smith, traj).values, traj.lyapunov)
        for primal_protocol, dual_protocol in pairs:
            audit = pd.monotonicity_audit(game, primal_protocol, dual_protocol, traj)
            assert audit.values.shape == (len(traj),)
            for i in range(len(traj)):
                x, mu = traj.state_at(i)
                expected = pd.lyapunov_value(game, primal_protocol, dual_protocol, x, mu)
                bound = 1e-12 * max(1.0, abs(expected))
                assert abs(audit.values[i] - expected) <= bound, (primal_protocol.name, i)


def _jump_trajectory():
    # two hand-picked states with V jumping from ~0.03 to 74.5: with all
    # prices on the cap, the priced payoffs at the first corner are
    # (-8, 2, -1), so the primal term is max(10,0)^2/2 + max(7,0)^2/2
    lo_x = np.full(3, 1.0 / 3.0)
    lo_mu = np.array([4.0, 0.0])
    hi_x = np.array([1.0, 0.0, 0.0])
    hi_mu = np.array([0.0, 4.0])
    return pd.Trajectory(
        times=np.array([0.0, 0.01]),
        primal=np.array([lo_x, hi_x]),
        dual=np.array([lo_mu, hi_mu]),
        potential=np.array([np.nan, np.nan]),
        constraints=np.zeros((2, 2)),
        lyapunov=np.zeros(2),
        primal_field_norm=np.zeros(2),
        dual_field_norm=np.zeros(2),
        converged=False,
        primal_mass=1.0,
        dual_mass=4.0,
    )


def test_audit_flags_a_constructed_increase(rps, smith):
    audit = pd.monotonicity_audit(rps, smith, smith, _jump_trajectory())
    assert audit.violation_steps == (0,)
    assert audit.fraction_nonincreasing == 0.0
    assert audit.max_increase == pytest.approx(74.5 - 4.0 * (11.0 / 90.0) ** 2 / 2.0, abs=1e-12)


@pytest.mark.parametrize("audit_tol", [math.nan, math.inf, -1.0])
def test_audit_rejects_a_tolerance_outside_zero_to_infinity(rps, smith, audit_tol):
    # NaN and +inf would pass any jump; a negative tolerance flags flat steps
    with pytest.raises(pd.ConfigurationError, match="audit tolerance"):
        pd.monotonicity_audit(rps, smith, smith, _jump_trajectory(), audit_tol=audit_tol)
