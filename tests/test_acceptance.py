"""End-to-end acceptance gate for the benchmark behaviors.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible under ``pytest -s``) before asserting, so a red run still reports
every criterion it reached.
"""

import json
import time

import numpy as np
import pytest

import popdyn as pd
from popdyn import cli
from popdyn.dynamics import _joint_field
from popdyn.lyapunov import _value_raw

from conftest import null_dual, random_simplex
from quadrature import adaptive_simpson


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"{name}{tail}"


def fields(game, protocol, xv, muv):
    """Both populations' fields at one state, from one joint-kernel call."""
    z = _joint_field(game, protocol, np.concatenate((xv, muv)))
    return z[: game.n], z[game.n :]


def zero_potential_game(n=3):
    return pd.build_quadratic_potential(np.zeros((n, n)), np.zeros(n))


def perturbed_states(game, traj, scale_frac, seed, count):
    """Endpoint states displaced along random zero-sum unit directions."""
    rng = np.random.default_rng(seed)
    xe, me = traj.primal[-1], traj.dual[-1]
    xs = scale_frac * game.primal_mass
    ms = scale_frac * game.dual_mass
    for _ in range(count):
        zx = rng.standard_normal(game.n)
        zx -= zx.mean()
        zx /= np.linalg.norm(zx)
        zm = rng.standard_normal(game.q + 1)
        zm -= zm.mean()
        zm /= np.linalg.norm(zm)
        xv = np.maximum(xe + xs * zx, 0.0)
        xv *= game.primal_mass / xv.sum()
        muv = np.maximum(me + ms * zm, 0.0)
        muv *= game.dual_mass / muv.sum()
        yield xv, muv


def test_criterion_01_congestion_reproduction(tmp_path, capsys):
    walls = []
    codes = []
    for seed in range(10):
        start = time.perf_counter()
        code = cli.main(
            ["repro", "congestion", "--seed", str(seed), "--out-dir", str(tmp_path / f"s{seed}")]
        )
        walls.append(time.perf_counter() - start)
        codes.append(code)
    capsys.readouterr()
    ok = all(c == 0 for c in codes) and all(w < 10.0 for w in walls)
    _verdict(
        "criterion 1: congestion endpoint reproduction, seeds 0..9",
        ok,
        f"exit codes {sorted(set(codes))}, slowest {max(walls):.1f}s",
    )


def test_criterion_02_rps_reproduction(rps, rps_run, tmp_path, capsys):
    target = np.array([0.313, 0.044, 0.643])
    endpoint = rps_run.primal[-1]
    deviation = float(np.max(np.abs(endpoint - target)))
    # the solver the repro checks against finds the paper's point too
    solved = float(np.max(np.abs(pd.optimum_solve(rps).point.x - target)))
    cap_value = float(endpoint[0] ** 2 + endpoint[1] ** 2)
    code = cli.main(["repro", "rps", "--out-dir", str(tmp_path / "rps")])
    capsys.readouterr()
    ok = (
        deviation <= 1e-2
        and solved <= 1e-3
        and cap_value <= 0.1 + 1e-6
        and cap_value >= 0.098
        and code == 0
    )
    _verdict(
        "criterion 2: rps endpoint and active cap",
        ok,
        f"max deviation {deviation:.1e}, solver {solved:.1e}, cap value {cap_value:.6f}",
    )


def test_criterion_03_dual_mass_bound(capsys):
    code = cli.main(
        [
            "bound",
            "--game",
            "paper-congestion",
            "--slater",
            "0.25,0.25,0.25,0.25",
            "--p-star-upper",
            "0",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and abs(payload["bound"] - 121.875) <= 1e-9
        and payload["sufficient"] is True
        and payload["dual_mass"] == 122.0
    )
    _verdict(
        "criterion 3: sufficient dual mass from the interior point",
        ok,
        f"bound {payload['bound']!r}",
    )


def test_criterion_04_mass_conservation_and_boundary(congestion, rps, smith):
    worst_sum = 0.0
    worst_boundary = 0.0
    for game in (congestion, rps):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            xv = random_simplex(rng, game.n, game.primal_mass)
            muv = random_simplex(rng, game.q + 1, game.dual_mass)
            fp, fd = fields(game, smith, xv, muv)
            worst_sum = max(worst_sum, abs(float(fp.sum())), abs(float(fd.sum())))
        for _ in range(200):
            xv = random_simplex(rng, game.n, game.primal_mass)
            xv[rng.integers(game.n)] = 0.0
            xv *= game.primal_mass / xv.sum()
            muv = random_simplex(rng, game.q + 1, game.dual_mass)
            muv[rng.integers(game.q + 1)] = 0.0
            muv *= game.dual_mass / muv.sum()
            fp, fd = fields(game, smith, xv, muv)
            worst_boundary = min(
                float(fp[xv == 0.0].min(initial=np.inf)),
                float(fd[muv == 0.0].min(initial=np.inf)),
                worst_boundary,
            )
    ok = worst_sum <= 1e-12 and worst_boundary >= 0.0
    _verdict(
        "criterion 4: exact mass conservation and boundary repulsion",
        ok,
        f"worst |sum| {worst_sum:.1e}, worst empty-coordinate flow {worst_boundary:.1e}",
    )


def test_criterion_05_nash_stationarity(congestion, rps, smith):
    games = (congestion, rps, zero_potential_game())
    mismatches = 0
    checked = 0

    def equivalent(game, x, mu):
        nonlocal mismatches, checked
        fp, fd = (np.max(np.abs(f)) for f in fields(game, smith, x.x, mu.mu))
        gaps = pd.nash_gaps(game, x, mu)
        mismatches += int((fp <= 1e-12) != (gaps.primal <= 1e-9))
        mismatches += int((fd <= 1e-12) != (gaps.dual <= 1e-9))
        checked += 2

    for game in games:
        rng = np.random.default_rng(11)
        for _ in range(500):
            x = pd.PrimalState(random_simplex(rng, game.n, game.primal_mass), game.primal_mass)
            mu = pd.DualState(random_simplex(rng, game.q + 1, game.dual_mass), game.dual_mass)
            equivalent(game, x, mu)

    # constructed rest points: equalized payoffs and argmax-concentrated
    # prices must zero their fields bitwise, and their Nash gaps too
    exact = True
    bary = pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0)
    field, _ = fields(rps, smith, bary.x, null_dual(rps).mu)
    exact &= bool(np.all(field == 0.0)) and pd.nash_gaps(rps, bary, null_dual(rps)).primal == 0.0
    zero_game = zero_potential_game()
    rng = np.random.default_rng(17)
    for _ in range(50):
        xv = random_simplex(rng, 3, 1.0)
        f, _ = fields(zero_game, smith, xv, np.array([1.0]))
        exact &= bool(np.all(f == 0.0))
    for game in (congestion, rps):
        for _ in range(50):
            xv = random_simplex(rng, game.n, game.primal_mass)
            x = pd.PrimalState(xv, game.primal_mass)
            g = pd.constraint_values(game, x)
            muv = np.zeros(game.q + 1)
            muv[int(np.argmax(g))] = game.dual_mass
            _, fd = fields(game, smith, xv, muv)
            exact &= bool(np.all(fd == 0.0))
            exact &= pd.nash_gaps(game, x, pd.DualState(muv, game.dual_mass)).dual == 0.0

    ok = mismatches == 0 and exact
    _verdict(
        "criterion 5: rest points coincide with Nash states",
        ok,
        f"{checked} random equivalence checks, constructed fields exact: {exact}",
    )


def test_criterion_06_lyapunov_suite(congestion, rps, smith, congestion_run, rps_run):
    runs = {"congestion": (congestion, congestion_run), "rps": (rps, rps_run)}

    nonneg_ok = True
    rate_ok = True
    for game, _ in runs.values():
        rng = np.random.default_rng(21)
        for _ in range(1000):
            xv = random_simplex(rng, game.n, game.primal_mass)
            muv = random_simplex(rng, game.q + 1, game.dual_mass)
            nonneg_ok &= _value_raw(game, smith, smith, xv, muv) >= -1e-12
        rng = np.random.default_rng(31)
        for _ in range(500):
            x = pd.PrimalState(random_simplex(rng, game.n, game.primal_mass), game.primal_mass)
            mu = pd.DualState(random_simplex(rng, game.q + 1, game.dual_mass), game.dual_mass)
            rate_ok &= pd.lyapunov_rate(game, smith, smith, x, mu) <= 1e-9

    endpoint_ok = all(
        traj.converged and traj.lyapunov[-1] <= 1e-9 for _, traj in runs.values()
    )

    perturbed_ok = True
    for game, traj in runs.values():
        for xv, muv in perturbed_states(game, traj, 0.05, seed=7, count=1000):
            perturbed_ok &= _value_raw(game, smith, smith, xv, muv) > 1e-6

    fractions = {}
    counts_ok = True
    for label, (game, traj) in runs.items():
        audit = pd.monotonicity_audit(game, smith, smith, traj, audit_tol=1e-8)
        fractions[label] = audit.fraction_nonincreasing
        x0, _ = traj.state_at(0)
        mu0 = null_dual(game)
        fine = pd.integrate(game, smith, x0, mu0, pd.SimParams(horizon=200.0, step=0.001))
        fine_audit = pd.monotonicity_audit(game, smith, smith, fine, audit_tol=1e-8)
        counts_ok &= len(fine_audit.violation_steps) <= len(audit.violation_steps)
    fraction_ok = all(f >= 0.999 for f in fractions.values())

    ok = nonneg_ok and rate_ok and endpoint_ok and perturbed_ok and fraction_ok and counts_ok
    _verdict(
        "criterion 6: decrease certificate along and off the flow",
        ok,
        f"nonincreasing fractions {fractions['congestion']:.4f}/{fractions['rps']:.4f}",
    )


def test_criterion_07_saddle_property(congestion, congestion_run):
    check = pd.saddle_check(congestion, congestion_run.final_primal, congestion_run.final_dual)
    ok = check.primal <= 1e-6 and check.dual <= 1e-6
    _verdict(
        "criterion 7: endpoint is a saddle of the priced objective",
        ok,
        f"Nash gaps {check.primal:.1e}/{check.dual:.1e}",
    )


def test_criterion_08_stable_game_test(rps):
    cyc = pd.check_stable_game(rps, samples=200, seed=0)
    identity = pd.GameSpec(
        n=3,
        primal_mass=1.0,
        dual_mass=1.0,
        fitness=pd.CallableFitness(lambda x: x.copy(), jac=lambda x: np.eye(3)),
    )
    counter = pd.check_stable_game(identity, samples=200, seed=0)
    ok = cyc.stable and cyc.worst <= 1e-9 and abs(cyc.worst + 0.5) <= 1e-9 and not counter.stable
    _verdict(
        "criterion 8: curvature test accepts the cyclic game, rejects identity",
        ok,
        f"worst tangent curvatures {cyc.worst:.3f} / {counter.worst:.3f}",
    )


def test_criterion_09_protocol_integral(smith):
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        a = float(rng.uniform(-10.0, 10.0))
        closed = float(smith.antiderivative(np.asarray(a)))
        numeric = adaptive_simpson(lambda t: float(smith.value(np.asarray(t))), 0.0, a)
        worst = max(worst, abs(closed - numeric))
    ok = worst <= 1e-9
    _verdict(
        "criterion 9: closed-form rate integral matches quadrature",
        ok,
        f"worst gap {worst:.1e}",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code = cli.main(["repro", "congestion", "--seed", "0", "--out-dir", str(out_dir)])
        stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
        files = {
            name: (out_dir / name).read_bytes()
            for name in ("trajectory.csv", "report.json", "audit.json")
        }
        outputs.append((code, stdout, files))
    sim = []
    for tag in ("c", "d"):
        path = tmp_path / f"{tag}.csv"
        code = cli.main(
            ["simulate", "--game", "paper-rps", "--horizon", "5", "--out", str(path)]
        )
        capsys.readouterr()
        sim.append((code, path.read_bytes()))
    ok = outputs[0] == outputs[1] and sim[0] == sim[1]
    _verdict(
        "criterion 10: identical flags give byte-identical outputs",
        ok,
        f"{len(outputs[0][2]) + 1} files compared",
    )
