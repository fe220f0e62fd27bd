"""Revision protocols, exchange fields, and the fixed-step integrator."""

import dataclasses
import logging
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popdyn as pd
from popdyn import dynamics
from popdyn.lyapunov import _value_raw

from conftest import SQUARE, masked_gaps, null_dual, random_simplex, reference_integrate
from test_field_oracle import generated_games


# --- protocols ---


def test_smith_protocol_rate_and_antiderivative():
    smith = pd.smith_protocol()
    gaps = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(smith.value(gaps), np.array([0.0, 0.0, 3.0]))
    assert np.array_equal(smith.antiderivative(gaps), np.array([0.0, 0.0, 4.5]))


def test_a_protocol_needs_its_antiderivative(smith):
    with pytest.raises(TypeError):
        pd.Protocol("smith", smith.value)


# Smith's rate capped at 0.7071: a kink inside a cell of the validation grid
_CAP = 0.7071
CAPPED = pd.Protocol(
    "capped",
    lambda g: np.minimum(np.maximum(g, 0.0), _CAP),
    lambda g: np.where(g <= _CAP, 0.5 * np.maximum(g, 0.0) ** 2, _CAP * (g - 0.5 * _CAP)),
)
# Smith written over its argument, as the step loop allows
SMITH_IN_PLACE = pd.Protocol(
    "smith-in-place", lambda g: np.maximum(g, 0.0, out=g), pd.smith_protocol().antiderivative
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "protocol", [pd.smith_protocol(), SQUARE, CAPPED, SMITH_IN_PLACE], ids=lambda p: p.name
)
def test_validate_protocol_accepts_exact_protocols(protocol):
    pd.validate_protocol(protocol)


def test_the_gauss_legendre_literals_are_the_4_point_rule():
    nodes, weights = np.polynomial.legendre.leggauss(4)
    assert np.max(np.abs(dynamics._GAUSS_NODES - nodes)) <= 1e-15
    assert np.max(np.abs(dynamics._GAUSS_WEIGHTS - weights)) <= 1e-15


@pytest.mark.parametrize("factor", [2.0, 1.0 + 1e-6], ids=["doubled", "relative-1e-6"])
def test_an_antiderivative_off_the_rates_integral_is_refused(smith, factor):
    # V is built from the antiderivative alone, so a scaled one scales V
    off = pd.Protocol("off", smith.value, lambda a: factor * smith.antiderivative(a))
    with pytest.raises(pd.ConfigurationError, match="off the rate's integral"):
        pd.validate_protocol(off)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_protocol_reads_its_own_grid_after_an_in_place_rate():
    # 1 + max(g, 0) written over its argument: the grid must still show the
    # nonpositive gaps, where this rate fails to vanish
    shifted = pd.Protocol(
        "shifted-in-place",
        lambda g: np.add(np.maximum(g, 0.0, out=g), 1.0, out=g),
        lambda g: g + 0.5 * np.maximum(g, 0.0) ** 2,
    )
    with pytest.raises(pd.ConfigurationError, match="rate must vanish"):
        pd.validate_protocol(shifted)


def test_validate_protocol_rejects_rate_on_nonpositive_gaps():
    bad = pd.Protocol(name="bad", value=lambda a: np.ones_like(a), antiderivative=lambda a: 1.0 * a)
    with pytest.raises(pd.ConfigurationError):
        pd.validate_protocol(bad)


def test_validate_protocol_rejects_zero_rate_on_positive_gaps():
    bad = pd.Protocol(name="flat", value=lambda a: np.zeros_like(a), antiderivative=np.zeros_like)
    with pytest.raises(pd.ConfigurationError):
        pd.validate_protocol(bad)


def test_validate_protocol_rejects_nonfinite_rate():
    bad = pd.Protocol(
        name="nan",
        value=lambda a: np.where(a > 5, np.nan, np.maximum(a, 0.0)),
        antiderivative=lambda a: 0.5 * np.maximum(a, 0.0) ** 2,
    )
    with pytest.raises(pd.ConfigurationError):
        pd.validate_protocol(bad)


def test_validate_protocol_rejects_bad_antiderivative():
    # correct rate, but an antiderivative that fails to vanish at zero
    bad = pd.Protocol(
        name="offset",
        value=lambda a: np.maximum(a, 0.0),
        antiderivative=lambda a: np.maximum(a, 0.0) ** 2 / 2 + 1.0,
    )
    with pytest.raises(pd.ConfigurationError):
        pd.validate_protocol(bad)


# --- simulation parameters ---


def test_sim_params_defaults():
    p = pd.SimParams(horizon=10.0)
    assert p.step == 0.01
    assert p.integrator == "euler"
    assert p.convergence_window == 100


@pytest.mark.parametrize(
    "kwargs",
    [
        {"horizon": 10.0, "step": 0.0},
        {"horizon": 10.0, "step": -1.0},
        {"horizon": 0.001, "step": 0.01},
        {"horizon": 10.0, "integrator": "heun"},
        {"horizon": 10.0, "convergence_tol": 0.0},
        {"horizon": 10.0, "convergence_window": 0},
        {"horizon": 1e308, "step": 1e-300},  # the step count overflows to inf
        {"horizon": float("inf"), "step": 1.0},
        {"horizon": float("inf"), "step": float("inf")},
        {"horizon": float("nan"), "step": 1.0},
        {"horizon": 10.0, "step": float("nan")},
        {"horizon": 10.0, "convergence_tol": float("inf")},
        {"horizon": 10.0, "convergence_window": 2.5},
        {"horizon": 10.0, "convergence_window": 100.0},
    ],
)
def test_sim_params_rejects_bad_values(kwargs):
    with pytest.raises(pd.ConfigurationError):
        pd.SimParams(**kwargs)


def test_integrate_rejects_a_step_count_it_cannot_record(rps, smith):
    # finite, but far past the largest array numpy can shape; nothing is allocated
    params = pd.SimParams(horizon=1e300, step=1.0)
    with pytest.raises(pd.ConfigurationError, match="recorded states"):
        pd.integrate(rps, smith, rps.start, null_dual(rps), params)


def test_sample_simplex_rejects_a_negative_seed():
    with pytest.raises(pd.ConfigurationError, match="seed"):
        pd.sample_simplex(3, 1.0, seed=-1)


def test_sample_simplex_is_deterministic_per_seed():
    a = pd.sample_simplex(5, 2.0, seed=42)
    b = pd.sample_simplex(5, 2.0, seed=42)
    c = pd.sample_simplex(5, 2.0, seed=43)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)
    assert a.x.sum() == pytest.approx(2.0, abs=1e-12)
    assert np.all(a.x >= 0)


# --- exchange fields ---


def test_fields_conserve_mass(congestion, rps, smith):
    for game in (congestion, rps):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = pd.PrimalState(random_simplex(rng, game.n, game.primal_mass), game.primal_mass)
            mu = pd.DualState(random_simplex(rng, game.q + 1, game.dual_mass), game.dual_mass)
            assert abs(pd.primal_field(game, smith, x, mu).sum()) <= 1e-12
            assert abs(pd.dual_field(game, smith, x, mu).sum()) <= 1e-12


def test_field_is_nonnegative_on_empty_strategies(congestion, smith):
    # an empty strategy can only gain mass, never lose it
    rng = np.random.default_rng(2)
    for _ in range(50):
        xv = random_simplex(rng, congestion.n, 1.0)
        kill = rng.integers(congestion.n)
        xv[kill] = 0.0
        xv *= congestion.primal_mass / xv.sum()
        x = pd.PrimalState(xv, mass=1.0)
        field = pd.primal_field(congestion, smith, x, null_dual(congestion))
        assert field[kill] >= 0.0


def test_field_is_zero_when_payoffs_are_equal(rps, smith):
    x = pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0)
    field = pd.primal_field(rps, smith, x, null_dual(rps))
    assert np.array_equal(field, np.zeros(3))


def test_dual_field_pushes_mass_onto_violated_constraints(rps, smith):
    # at the barycenter the cap is violated, so prices must flow off the
    # null strategy toward the constraint
    x = pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0)
    field = pd.dual_field(rps, smith, x, null_dual(rps))
    assert field[1] > 0
    assert field[0] == -field[1]


def test_fields_reject_foreign_states(congestion, rps, smith):
    x = pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0)
    with pytest.raises(pd.ConfigurationError):
        pd.primal_field(congestion, smith, x, null_dual(congestion))
    with pytest.raises(pd.ConfigurationError):
        pd.dual_field(rps, smith, x, null_dual(congestion))


# --- integration ---


def test_first_euler_step_matches_hand_computation(rps, smith):
    x0 = pd.PrimalState(np.array([0.5, 0.3, 0.2]), mass=1.0)
    mu0 = null_dual(rps)
    params = pd.SimParams(horizon=0.02, step=0.01)
    traj = pd.integrate(rps, smith, x0, mu0, params)
    fx = pd.primal_field(rps, smith, x0, mu0)
    fmu = pd.dual_field(rps, smith, x0, mu0)
    assert np.array_equal(traj.primal[1], x0.x + 0.01 * fx)
    assert np.array_equal(traj.dual[1], mu0.mu + 0.01 * fmu)


def test_recorded_times_are_exact_step_multiples(rps, smith):
    traj = pd.integrate(
        rps,
        smith,
        pd.PrimalState(np.array([0.5, 0.3, 0.2]), mass=1.0),
        null_dual(rps),
        pd.SimParams(horizon=0.5, step=0.01),
    )
    assert len(traj) == 51
    assert np.array_equal(traj.times, np.arange(51) * 0.01)


def test_trajectory_records_all_channels(congestion_run, congestion):
    traj = congestion_run
    assert traj.primal.shape == (len(traj), 4)
    assert traj.dual.shape == (len(traj), 9)
    assert traj.constraints.shape == (len(traj), 9)
    # null constraint column is identically zero
    assert np.array_equal(traj.constraints[:, 0], np.zeros(len(traj)))
    assert np.all(np.isfinite(traj.potential))
    assert np.all(np.isfinite(traj.lyapunov))
    # the potential climbs from start to converged endpoint
    assert traj.potential[-1] > traj.potential[0]


def test_trajectory_potential_is_nan_without_potential(rps_run):
    assert np.all(np.isnan(rps_run.potential))


def test_trajectory_state_accessors(congestion_run):
    x, mu = congestion_run.state_at(5)
    assert np.array_equal(x.x, congestion_run.primal[5])
    assert np.array_equal(mu.mu, congestion_run.dual[5])
    assert np.array_equal(congestion_run.final_primal.x, congestion_run.primal[-1])
    assert np.array_equal(congestion_run.final_dual.mu, congestion_run.dual[-1])


def test_trajectory_masses_stay_conserved(congestion_run, congestion):
    sums = congestion_run.primal.sum(axis=1)
    assert np.max(np.abs(sums - congestion.primal_mass)) <= 1e-9
    dual_sums = congestion_run.dual.sum(axis=1)
    assert np.max(np.abs(dual_sums - congestion.dual_mass)) <= 1e-9


def test_convergence_stops_early_and_flags(congestion_run):
    traj = congestion_run
    assert traj.converged
    assert traj.times[-1] < 200.0
    # every step in the trailing window is quiet
    tail = traj.primal_field_norm[-100:] + traj.dual_field_norm[-100:]
    assert np.all(tail < 1e-6)


def test_short_run_does_not_converge(congestion, smith):
    traj = pd.integrate(
        congestion,
        smith,
        pd.sample_simplex(4, 1.0, seed=0),
        null_dual(congestion),
        pd.SimParams(horizon=1.0, step=0.01),
    )
    assert not traj.converged
    assert len(traj) == 101


def test_rk4_tracks_euler_closely(congestion, smith):
    x0 = pd.sample_simplex(4, 1.0, seed=5)
    mu0 = null_dual(congestion)
    euler = pd.integrate(congestion, smith, x0, mu0, pd.SimParams(horizon=5.0, step=0.01))
    rk4 = pd.integrate(
        congestion, smith, x0, mu0, pd.SimParams(horizon=5.0, step=0.01, integrator="rk4")
    )
    assert np.max(np.abs(euler.primal[-1] - rk4.primal[-1])) < 1e-3
    assert np.max(np.abs(rk4.primal.sum(axis=1) - 1.0)) <= 1e-9


def test_integration_diverges_on_overflowing_payoffs(smith):
    game = pd.GameSpec(
        n=3,
        primal_mass=1.0,
        dual_mass=1.0,
        fitness=pd.CallableFitness(lambda x: np.array([1e308, -1e308, 0.0])),
    )
    with pytest.raises(pd.IntegrationDivergedError) as err, np.errstate(over="ignore"):
        pd.integrate(
            game,
            smith,
            pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0),
            pd.DualState(np.array([1.0]), mass=1.0),
            pd.SimParams(horizon=1.0, step=0.01),
        )
    assert err.value.step == 0


@pytest.mark.parametrize(
    "build, seed, h, step",
    [(pd.paper_congestion, 0, 0.05, 0), (pd.paper_congestion, 0, 0.02, 0), (pd.paper_rps, 1, 0.3, 4)],
)
def test_an_oversized_step_is_refused_with_a_positivity_limit_that_holds(
    build, seed, h, step, smith
):
    game = build()
    x0, mu0 = pd.sample_simplex(game.n, game.primal_mass, seed=seed), null_dual(game)
    with pytest.raises(pd.ConfigurationError) as err:
        pd.integrate(game, smith, x0, mu0, pd.SimParams(horizon=100.0, step=h))
    match = re.fullmatch(
        rf"step {h:g} is too long: the update from step (\d+) \(t = (\S+)\) takes a share "
        r"negative; the forward-Euler positivity limit 1 / max_j out_j there is (\S+)",
        str(err.value),
    )
    assert match, str(err.value)
    k, limit = int(match.group(1)), float(match.group(3))
    assert k == step and float(match.group(2)) == pytest.approx(k * h)
    x, mu = x0, mu0
    if k:
        # the run up to the named state stayed on both simplexes
        traj = pd.integrate(game, smith, x0, mu0, pd.SimParams(horizon=k * h, step=h))
        assert len(traj) == k + 1
        assert (traj.primal >= 0).all() and (traj.dual >= 0).all()
        x, mu = traj.final_primal, traj.final_dual
    fx, fmu = pd.primal_field(game, smith, x, mu), pd.dual_field(game, smith, x, mu)
    # the refused step leaves the orthant; 0.99 of the named limit does not
    assert min((x.x + h * fx).min(), (mu.mu + h * fmu).min()) < 0
    assert (x.x + 0.99 * limit * fx >= 0).all() and (mu.mu + 0.99 * limit * fmu >= 0).all()


def test_clean_runs_emit_no_repair_warning(rps, smith, caplog):
    with caplog.at_level(logging.DEBUG, logger="popdyn.dynamics"):
        pd.integrate(
            rps,
            smith,
            pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0),
            null_dual(rps),
            pd.SimParams(horizon=2.0, step=0.01),
        )
    assert not [r for r in caplog.records if r.name.startswith("popdyn.dynamics")]


# --- batched diagnostics ---


def assert_diagnostics_match_scalar(game, protocol, traj):
    """Recorded V, p and g agree row by row with the scalar evaluators."""
    scalar_v = np.array(
        [_value_raw(game, protocol, protocol, x, mu) for x, mu in zip(traj.primal, traj.dual)]
    )
    assert np.all(np.abs(traj.lyapunov - scalar_v) <= 1e-12 * np.maximum(1.0, np.abs(scalar_v)))
    assert traj.lyapunov.min() >= 0.0
    for i in range(len(traj)):
        x, _ = traj.state_at(i)
        g = pd.constraint_values(game, x)
        assert np.all(np.abs(traj.constraints[i] - g) <= 1e-12 * np.maximum(1.0, np.abs(g)))
        if game.potential is None:
            assert np.isnan(traj.potential[i])
        else:
            p = pd.potential(game, x)
            assert abs(traj.potential[i] - p) <= 1e-12 * max(1.0, abs(p))


def test_diagnostics_match_scalar_on_builtin_games(congestion, congestion_run, rps, rps_run, smith):
    # the congestion run spans several chunks of the diagnostics pass
    rows = dynamics.DIAGNOSTICS_CHUNK // max(congestion.n, congestion.q + 1) ** 2
    assert len(congestion_run) > 2 * rows
    assert_diagnostics_match_scalar(congestion, smith, congestion_run)
    assert_diagnostics_match_scalar(rps, smith, rps_run)


def _mixed_constraint_game():
    # concave quadratic potential under one affine and one quadratic cap
    return pd.build_quadratic_potential(
        -np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.5]]),
        np.array([1.0, 0.2, 0.6]),
        (
            pd.AffineConstraint(np.array([1.0, 0.0, 0.0]), 0.3),
            pd.QuadraticConstraint(np.diag([1.0, 1.0, 0.0]), np.array([0.0, 0.1, 0.0]), 0.2),
        ),
        dual_mass=3.0,
    )


def _callable_game():
    # gradient of p(x) = -0.5 |x - t|^2 through callables only
    target = np.array([0.6, 0.3, 0.1])
    return pd.GameSpec(
        n=3,
        primal_mass=1.0,
        dual_mass=2.0,
        fitness=pd.CallableFitness(lambda x: target - x),
        constraints=(pd.AffineConstraint(np.array([1.0, 0.0, 0.0]), 0.4),),
        potential=pd.CallablePotential(
            func=lambda x: -0.5 * float((x - target) @ (x - target)),
            grad=lambda x: target - x,
        ),
    )


def _callable_potential_game():
    # vector fitness from the potential's gradient callable
    rule = pd.CallablePotential(func=lambda x: -float(x @ x), grad=lambda x: -2.0 * x)
    return pd.GameSpec(
        n=3,
        primal_mass=1.0,
        dual_mass=2.0,
        fitness=pd.PotentialFitness(rule),
        constraints=(pd.QuadraticConstraint(np.eye(3), np.zeros(3), 0.5),),
        potential=rule,
    )


@pytest.mark.parametrize(
    "make_game", [_mixed_constraint_game, _callable_game, _callable_potential_game]
)
def test_diagnostics_match_scalar_across_chunks(make_game, smith, monkeypatch):
    # a tiny chunk puts many chunk boundaries inside a short run
    monkeypatch.setattr(dynamics, "DIAGNOSTICS_CHUNK", 50)
    game = make_game()
    mu0 = pd.DualState(np.full(game.q + 1, game.dual_mass / (game.q + 1)), game.dual_mass)
    traj = pd.integrate(
        game, smith, pd.sample_simplex(3, 1.0, seed=4), mu0, pd.SimParams(horizon=3.0, step=0.01)
    )
    assert_diagnostics_match_scalar(game, smith, traj)


def test_rows_committed_inside_the_loop_are_final_and_the_same_bits(congestion, smith, monkeypatch):
    # a tiny chunk commits many chunks inside the short run, filled between
    # blocks; the run without a caller fills the same chunks after the loop
    monkeypatch.setattr(dynamics, "DIAGNOSTICS_CHUNK", 7 * 81)
    chunk = dynamics._chunk_rows(congestion)
    assert chunk == 7
    x0 = pd.sample_simplex(congestion.n, congestion.primal_mass, seed=2)
    params = pd.SimParams(horizon=3.0, step=0.01)
    fields = ("times", "primal", "dual", "potential", "constraints", "lyapunov")
    fields += ("primal_field_norm", "dual_field_norm")
    commits = []

    def committed(rows, record):
        commits.append((rows, {name: getattr(record, name)[:rows].copy() for name in fields}))

    traj = dynamics.integrate(congestion, smith, x0, null_dual(congestion), params, _committed=committed)
    want = pd.integrate(congestion, smith, x0, null_dual(congestion), params)
    # blocks of 1, 2, 4, ..., 128 rows end at row 255; the last block ends
    # the run, and its rows are filled after the loop
    assert len(traj) == 301
    assert [rows for rows, _ in commits] == list(range(chunk, 256, chunk))
    for name in fields:
        assert getattr(traj, name).tobytes() == getattr(want, name).tobytes(), name
        for rows, seen in commits:
            assert seen[name].tobytes() == getattr(traj, name)[:rows].tobytes(), (name, rows)


def test_divergence_in_the_update_is_reported_at_the_next_step(rps, smith):
    # the field at the start is finite; one step of h = 1e308 overflows the prices
    x0 = pd.PrimalState(np.array([0.8, 0.1, 0.1]), mass=1.0)
    mu0 = null_dual(rps)
    field = pd.dual_field(rps, smith, x0, mu0)
    assert np.all(np.isfinite(field))
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(mu0.mu + 1e308 * field))
        with pytest.raises(pd.IntegrationDivergedError) as err:
            pd.integrate(rps, smith, x0, mu0, pd.SimParams(horizon=1e308, step=1e308))
    assert err.value.step == 1


def record_gaps(game, x0, mu0, params, seen):
    """Run ``integrate`` under Smith, appending to ``seen`` each gap matrix
    the protocol receives, paired with the kernel's payoffs ``P = (F, G)``
    at that call."""
    kernels = []
    bind = dynamics._field_kernel

    def recording_bind(game, protocol, h=0.0):
        kernels.append(bind(game, protocol, h))
        return kernels[-1]

    def value(gaps):
        seen.append((np.array(gaps), np.concatenate((kernels[-1].F, kernels[-1].G))))
        return np.maximum(gaps, 0.0)

    recorder = pd.Protocol("recorder", value, pd.smith_protocol().antiderivative)
    dynamics._field_kernel = recording_bind
    try:
        return pd.integrate(game, recorder, x0, mu0, params)
    finally:
        dynamics._field_kernel = bind


def assert_gaps_are_masked_differences(game, seen):
    for gaps, P in seen:
        # bitwise a masked subtract: one rounding of P_i - P_j within a
        # population, exact zeros pairing a strategy with a price, and exact
        # zeros pairing the constant coordinate of (1, x, mu) with anything
        want = np.zeros((P.size + 1, P.size + 1))
        want[1:, 1:] = masked_gaps(game, P)
        assert gaps.tobytes() == want.tobytes()


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_protocol_sees_only_within_population_gaps(congestion, rps, integrator):
    for game in (congestion, rps):
        seen = []
        x0 = pd.sample_simplex(game.n, game.primal_mass, seed=2)
        params = pd.SimParams(horizon=2.0, step=0.01, integrator=integrator)
        traj = record_gaps(game, x0, null_dual(game), params, seen)
        assert len(seen) >= len(traj)
        assert_gaps_are_masked_differences(game, seen)
        assert np.max(np.abs(traj.primal.sum(axis=1) - game.primal_mass)) <= 1e-12
        assert np.max(np.abs(traj.dual.sum(axis=1) - game.dual_mass)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    generated=generated_games(kinds=("matrix", "potential", "callable")),
    integrator=st.sampled_from(["euler", "rk4"]),
)
def test_gaps_are_masked_differences_on_generated_games(generated, integrator):
    # affine and quadratic constraints, q = 0 and callable fitness rules
    game, rng = generated
    x0 = pd.PrimalState(random_simplex(rng, game.n, game.primal_mass), game.primal_mass)
    mu0 = pd.DualState(random_simplex(rng, game.q + 1, game.dual_mass), game.dual_mass)
    params = pd.SimParams(horizon=0.5, step=0.01, integrator=integrator)
    seen = []
    try:
        record_gaps(game, x0, mu0, params, seen)
    except pd.ConfigurationError:
        pass  # a step too long for this game: the fields evaluated before still count
    assert seen
    assert_gaps_are_masked_differences(game, seen)


@settings(max_examples=40, deadline=None)
@given(
    generated=generated_games(kinds=("matrix", "potential", "callable")),
    integrator=st.sampled_from(["euler", "rk4"]),
)
def test_the_constant_coordinate_stays_exactly_one(generated, integrator):
    # the field's entry 0 is an exact zero, so no Euler update or RK4 stage moves it
    game, rng = generated
    x0 = pd.PrimalState(random_simplex(rng, game.n, game.primal_mass), game.primal_mass)
    mu0 = pd.DualState(random_simplex(rng, game.q + 1, game.dual_mass), game.dual_mass)
    params = pd.SimParams(horizon=0.5, step=0.01, integrator=integrator)
    seen = []  # (constant at the state, field's entry 0) per evaluation
    updates = []  # the constant of each Euler update
    bind = dynamics._field_kernel

    def recording_bind(game, protocol, h=0.0):
        kernel = bind(game, protocol, h)

        def field(z, out):
            kernel.field(z, out)
            seen.append((z[0], out[0]))
            return out

        def advance(z, f, out):
            kernel.advance(z, f, out)
            seen.append((z[0], f[0]))
            updates.append(out[0])
            return out

        return kernel._replace(field=field, advance=advance)

    dynamics._field_kernel = recording_bind
    try:
        traj = pd.integrate(game, pd.smith_protocol(), x0, mu0, params)
    except pd.ConfigurationError:
        traj = None  # a step too long for this game: the rows before still count
    finally:
        dynamics._field_kernel = bind
    assert seen and all(c == 1.0 and f == 0.0 for c, f in seen)
    assert all(c == 1.0 for c in updates)
    assert (integrator == "euler") == bool(updates)
    if traj is not None:
        # the recorded states are views past the constant column of one buffer
        states = traj.primal.base
        assert np.array_equal(states[: len(traj), 0], np.ones(len(traj)))



# --- block-verified stepping against the step-by-step reference ---


def _overflowing_game():
    return pd.GameSpec(
        n=3,
        primal_mass=1.0,
        dual_mass=1.0,
        fitness=pd.CallableFitness(lambda x: np.array([1e308, -1e308, 0.0])),
    )


def _refusing_rps(refused):
    """paper-rps with its payoffs behind a fitness that raises on negative shares."""
    rps = pd.paper_rps()

    def fitness(x):
        if (x < 0.0).any():
            refused.append(x.copy())
            raise ValueError("negative share")
        return rps.fitness(x)

    return pd.GameSpec(
        n=3,
        primal_mass=rps.primal_mass,
        dual_mass=rps.dual_mass,
        fitness=pd.CallableFitness(fitness),
        constraints=rps.constraints,
    )


def _seeded(seed):
    return lambda game: pd.sample_simplex(game.n, game.primal_mass, seed=seed)


def _barycenter(game):
    return pd.PrimalState(np.full(game.n, game.primal_mass / game.n), game.primal_mass)


REFERENCE_CASES = {
    "rps-h0.01": (pd.paper_rps, _barycenter, {"horizon": 200.0, "step": 0.01}),
    "congestion-seed0": (pd.paper_congestion, _seeded(0), {"horizon": 200.0}),
    # seed 4 takes the mass rescale once
    "congestion-seed4": (pd.paper_congestion, _seeded(4), {"horizon": 200.0}),
    # the first update leaves the simplex: refused at step 0
    "congestion-h0.05": (pd.paper_congestion, _seeded(0), {"horizon": 200.0, "step": 0.05}),
    # refused at step 0 too, although the step is shorter
    "congestion-h0.02": (pd.paper_congestion, _seeded(0), {"horizon": 200.0, "step": 0.02}),
    "congestion-rk4": (pd.paper_congestion, _seeded(0), {"horizon": 200.0, "integrator": "rk4"}),
    # refused at step 0; the message gives the Euler limit as a guide
    "congestion-rk4-h0.05": (
        pd.paper_congestion,
        _seeded(0),
        {"horizon": 200.0, "step": 0.05, "integrator": "rk4"},
    ),
    "rps-rk4": (pd.paper_rps, _barycenter, {"horizon": 40.0, "integrator": "rk4"}),
    "congestion-horizon": (pd.paper_congestion, _seeded(3), {"horizon": 7.3}),
    # a window longer than any block: the converging streak spans a block boundary
    "congestion-long-window": (
        pd.paper_congestion,
        _seeded(0),
        {"horizon": 200.0, "convergence_window": 2 * dynamics.BLOCK_MAX + 1},
    ),
    "rps-long-window": (
        pd.paper_rps,
        _barycenter,
        {
            "horizon": 200.0,
            "step": 0.01,
            "convergence_tol": 1e-3,
            "convergence_window": 3 * dynamics.BLOCK_MAX,
        },
    ),
    # a quiet streak of 14 rows carried into the block at row 767, where it converges
    "rps-carried-streak": (
        pd.paper_rps,
        _barycenter,
        {"horizon": 200.0, "step": 0.01, "convergence_tol": 0.1},
    ),
    # rows 6292..6297 are quiet; the updates from 6297 and 6298 are rescaled,
    # so the streak is carried across two rescales into the block that converges
    "congestion-streak-across-rescale": (
        pd.paper_congestion,
        _seeded(4),
        {"horizon": 200.0, "convergence_tol": 1.198e-6},
    ),
    "congestion-window-1": (pd.paper_congestion, _seeded(0), {"horizon": 200.0, "convergence_window": 1}),
    # the first block is row 0 alone; the horizon cuts the second to row 1
    "rps-horizon-one-step": (pd.paper_rps, _seeded(1), {"horizon": 0.01, "step": 0.01}),
    "rps-h0.5": (pd.paper_rps, _seeded(1), {"horizon": 100.0, "step": 0.5}),
    # refused inside a block: at step 4 of the block of steps 3..6
    "rps-h0.3-in-block": (pd.paper_rps, _seeded(1), {"horizon": 100.0, "step": 0.3}),
    # refused at step 3, where the block of steps 3..6 starts
    "rps-h0.4-in-block": (pd.paper_rps, _seeded(2), {"horizon": 100.0, "step": 0.4}),
    # the field overflows at the start
    "diverged-field": (_overflowing_game, _barycenter, {"horizon": 1.0}),
    # the first update overflows the prices
    "diverged-update": (
        pd.paper_rps,
        lambda game: pd.PrimalState(np.array([0.8, 0.1, 0.1]), 1.0),
        {"horizon": 1e308, "step": 1e308},
    ),
}


def assert_same_trajectory(traj, expected):
    """``traj`` holds the fields of the dict ``expected`` bitwise."""
    for field in dataclasses.fields(pd.Trajectory):
        got, want = getattr(traj, field.name), expected[field.name]
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and got.dtype == want.dtype, field.name
            assert got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name


def assert_integrate_matches_reference(game, protocol, x0, params):
    mu0 = null_dual(game)
    try:
        expected = reference_integrate(game, protocol, x0, mu0, params)
    except Exception as exc:  # the reference's own failure is the expected outcome
        with pytest.raises(type(exc)) as err:
            pd.integrate(game, protocol, x0, mu0, params)
        assert str(err.value) == str(exc)
        assert getattr(err.value, "step", None) == getattr(exc, "step", None)
        return None
    traj = pd.integrate(game, protocol, x0, mu0, params)
    assert_same_trajectory(traj, expected)
    return traj


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_integrate_matches_the_step_by_step_reference(case, smith):
    build, start, kwargs = REFERENCE_CASES[case]
    game = build()
    assert_integrate_matches_reference(game, smith, start(game), pd.SimParams(**kwargs))


def test_a_refused_speculative_state_is_dropped_with_its_block(smith):
    # at h = 0.3 the update from step 4 leaves the simplex; the step-by-step
    # loop refuses it before the fitness sees it, but the block of steps 3..6
    # evaluates the field at the unrefused state first
    refused = []
    game = _refusing_rps(refused)
    x0 = pd.sample_simplex(3, 1.0, seed=1)
    params = pd.SimParams(horizon=100.0, step=0.3)
    with pytest.raises(pd.ConfigurationError, match="from step 4 "):
        reference_integrate(game, smith, x0, null_dual(game), params)
    assert refused == []
    assert assert_integrate_matches_reference(game, smith, x0, params) is None
    assert refused


def test_a_refusal_the_step_by_step_loop_reaches_propagates(smith):
    # RK4's intermediate states leave the simplex, so the reference raises too
    refused = []
    game = _refusing_rps(refused)
    x0 = pd.sample_simplex(3, 1.0, seed=1)
    params = pd.SimParams(horizon=100.0, step=1.0, integrator="rk4")
    with pytest.raises(ValueError, match="negative share"):
        reference_integrate(game, smith, x0, null_dual(game), params)
    assert assert_integrate_matches_reference(game, smith, x0, params) is None


# --- the kernel's work arrays ---


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_a_protocol_that_overwrites_its_gaps_matches_smith(congestion, rps, smith, integrator):
    # the kernel hands the protocol the same gap matrix on every call; a rate
    # written over it must not leak into the next evaluation
    for game in (congestion, rps):
        x0 = pd.sample_simplex(game.n, game.primal_mass, seed=1)
        params = pd.SimParams(horizon=200.0 if integrator == "euler" else 30.0, integrator=integrator)
        want = pd.integrate(game, smith, x0, null_dual(game), params)
        got = pd.integrate(game, SMITH_IN_PLACE, x0, null_dual(game), params)
        assert_same_trajectory(got, {**vars(want), "protocol": SMITH_IN_PLACE})


def test_the_kernel_takes_quadratic_memory(smith):
    # building the game and binding and calling its kernel at N = 200 peaks
    # near 5 N^2 doubles; an (N^2, N) operator would add N^3 of them, 64 MB
    n, q = 196, 3
    N = n + q + 1
    rng = np.random.default_rng(0)
    A, rows = rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(0.0, 1.0, (q, n))
    z = np.concatenate(((1.0,), np.full(n, 1.0 / n), np.full(q + 1, 2.0 / (q + 1))))
    tracemalloc.start()
    try:
        game = pd.GameSpec(
            n=n,
            primal_mass=1.0,
            dual_mass=2.0,
            fitness=pd.MatrixFitness(A),
            constraints=tuple(pd.AffineConstraint(a, 0.5) for a in rows),
        )
        dynamics._field_kernel(game, smith).field(z, np.empty(N + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * N * N * 8


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_concurrent_runs_on_one_game_share_no_buffer(congestion, rps, smith, integrator):
    params = pd.SimParams(horizon=20.0, integrator=integrator)
    runs = [(game, seed) for game in (congestion, rps) for seed in (0, 1)]
    starts = [pd.sample_simplex(game.n, game.primal_mass, seed=seed) for game, seed in runs]
    serial = [pd.integrate(game, smith, x0, null_dual(game), params) for (game, _), x0 in zip(runs, starts)]
    results = [None] * len(runs)
    barrier = threading.Barrier(len(runs), timeout=60)

    def work(i):
        game = runs[i][0]
        barrier.wait()
        try:
            results[i] = pd.integrate(game, smith, starts[i], null_dual(game), params)
        except Exception as exc:  # reported by the main thread
            results[i] = exc

    # more threads than cores, switching often so that the runs interleave step by step
    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(runs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        assert isinstance(got, pd.Trajectory), got
        assert_same_trajectory(got, vars(want))
