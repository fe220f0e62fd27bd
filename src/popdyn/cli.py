"""Command-line driver: simulate, verify, bound, and repro subcommands.

Exit codes: 0 success, 1 usage or configuration error (a step too long to
keep every share nonnegative is one), 2 simulation reached the horizon
without converging, 3 verification or reproduction thresholds failed (or a
simulation converged to an endpoint whose ``g_max`` exceeds ``--report-tol``).
Output files (trajectory CSV, JSON reports) are byte-deterministic for
fixed flags and seed.  Trajectory CSV cells are the text ``repr`` gives
each float (``NaN`` for NaN), computed over whole row chunks by
``_shortest``; a long trajectory CSV is rendered in row ranges on the usable
cores by forked children, with the bytes of the serial render.
The environment variable ``POPDYN_OUT_DIR`` supplies the default output
root.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import warnings

import numpy as np

from . import _shortest, core, dynamics, equilibrium, games
from .core import (
    ConfigurationError,
    DualState,
    GameSpec,
    PrimalState,
    UnsupportedOperationError,
)
from .dynamics import PROTOCOLS, IntegrationDivergedError, SimParams, Trajectory
from .equilibrium import InfeasibleInstanceError, SlaterViolationError
from .lyapunov import monotonicity_audit

# thresholds used by the repro subcommand
AUDIT_TOL = 1e-8
AUDIT_FRACTION = 0.999
REPORT_TOL = 1e-3
# seed of the random start when neither --seed nor --seeds is given
DEFAULT_SEED = 0
# rows the trajectory CSV renders at a time.  Peak memory bounds it: over 30
# in-process congestion repros the peak RSS read 43.5 MB at 256 rows, 44.3 MB
# at 512 and 47.3 MB at 1,024, against 43.4 MB when each cell went through repr
CSV_CHUNK = 256
# fewest rows worth a forked child of their own when the CSV is split over cores
CSV_PART_MIN = 8 * CSV_CHUNK

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_NO_CONVERGENCE = 2
_EXIT_THRESHOLDS = 3


class _CliError(Exception):
    """Usage-level problem; rendered to stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through _CliError so
    # the exit-code contract (1 = usage error) holds
    def error(self, message):
        raise _CliError(f"{self.prog}: {message}")


def _out_root() -> str:
    return os.environ.get("POPDYN_OUT_DIR", ".")


# ---------------------------------------------------------------------------
# game sources


def _resolve_game(source: str) -> GameSpec:
    if source in games.BUILTIN_GAMES:
        return games.builtin_game(source)
    if os.path.exists(source):
        return _load_game_file(source)
    known = ", ".join(sorted(games.BUILTIN_GAMES))
    raise ConfigurationError(
        f"unknown game {source!r}: neither a builtin name ({known}) nor an existing file"
    )


def _load_game_file(path: str) -> GameSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be an object")
    try:
        return _game_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise ConfigurationError(f"{path}: {exc}") from exc
        raise ConfigurationError(f"{path}: malformed game description ({exc})") from exc


def _game_from_dict(data: dict) -> GameSpec:
    fit = data.get("fitness")
    if not isinstance(fit, dict) or "type" not in fit:
        raise ConfigurationError('"fitness" must be an object with a "type"')
    ftype = fit["type"]

    if ftype == "builtin":
        game = games.builtin_game(fit["name"])
        for key, value in (
            ("n", game.n),
            ("q", game.q),
            ("primal_mass", game.primal_mass),
            ("dual_mass", game.dual_mass),
        ):
            if key in data and data[key] != value:
                raise ConfigurationError(
                    f'"{key}" is {data[key]} but builtin {fit["name"]!r} has {value}'
                )
        if data.get("constraints"):
            raise ConfigurationError("builtin games carry their own constraints")
        return game

    n = _count(data, "n")
    primal_mass = float(data["primal_mass"])
    dual_mass = float(data["dual_mass"])
    constraints = tuple(_constraint_from_dict(c) for c in data.get("constraints", []))
    if "q" in data and _count(data, "q") != len(constraints):
        raise ConfigurationError(
            f'"q" is {data["q"]} but {len(constraints)} constraints were given'
        )

    if ftype == "linear":
        # n comes from the matrix, as from H below, so a mismatch is named after "n"
        matrix = core.MatrixFitness(fit["matrix"])
        game = GameSpec(
            n=len(matrix.matrix),
            primal_mass=primal_mass,
            dual_mass=dual_mass,
            fitness=matrix,
            constraints=constraints,
            name="linear",
        )
    elif ftype == "quadratic_potential":
        game = games.build_quadratic_potential(
            np.asarray(fit["H"], dtype=float),
            np.asarray(fit["c"], dtype=float),
            constraints,
            primal_mass=primal_mass,
            dual_mass=dual_mass,
        )
    else:
        raise ConfigurationError(
            f'unknown fitness type {ftype!r} (known: linear, quadratic_potential, builtin)'
        )
    if game.n != n:
        raise ConfigurationError(f'"n" is {n} but the fitness data implies {game.n}')
    return game


def _count(data: dict, key: str) -> int:
    """``data[key]`` as an integer; a fractional or non-numeric count is refused."""
    value = data[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int):
        raise ConfigurationError(f'"{key}" must be an integer, got {value!r}')
    return value


def _constraint_from_dict(data: dict):
    if not isinstance(data, dict) or "type" not in data:
        raise ConfigurationError('each constraint must be an object with a "type"')
    if data["type"] == "affine":
        return core.AffineConstraint(data["a"], data["b"])
    if data["type"] == "quadratic":
        return core.QuadraticConstraint(data["Q"], data["a"], data["c"])
    raise ConfigurationError(f'unknown constraint type {data["type"]!r}')


# ---------------------------------------------------------------------------
# small helpers


def _parse_vector(text: str, what: str) -> np.ndarray:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"{what}: expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise ConfigurationError(f"{what}: empty vector")
    return np.array(values)


def _seed(text: str) -> int:
    """argparse type of ``--seed`` and of each ``--seeds`` bound: a nonnegative integer."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


def _parse_seed_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    lo, hi = _seed(lo), _seed(hi)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"range is empty: {text}")
    return range(lo, hi + 1)


def _null_dual(game: GameSpec) -> DualState:
    mu = np.zeros(game.q + 1)
    mu[0] = game.dual_mass
    return DualState(mu, game.dual_mass)


def _default_primal(game: GameSpec, seed: int) -> tuple[PrimalState, int | None]:
    """Returns ``(x0, used_seed)``: the game's fixed start with seed None, else a seeded draw."""
    if game.start is not None:
        return game.start, None
    return dynamics.sample_simplex(game.n, game.primal_mass, seed), seed


def _refuse_unused_seed(flag: str, x0_flag, game: GameSpec, label: str) -> None:
    """Raise a usage error when a fixed start leaves ``flag`` nothing to draw."""
    if x0_flag is not None or game.start is not None:
        fixed_by = "--x0" if x0_flag is not None else f"game {label!r}"
        raise _CliError(f"{flag} would be ignored: {fixed_by} fixes the start")


def _initial_conditions(game: GameSpec, x0_flag, mu0_flag, seed: int):
    """Returns ``(x0, mu0, used_seed)``; the seed is None unless drawn from."""
    if x0_flag is not None:
        x0 = PrimalState(_parse_vector(x0_flag, "--x0"), game.primal_mass)
        used_seed = None
    else:
        x0, used_seed = _default_primal(game, seed)
    if mu0_flag is not None:
        mu0 = DualState(_parse_vector(mu0_flag, "--mu0"), game.dual_mass)
    else:
        mu0 = _null_dual(game)
    return x0, mu0, used_seed


def _fit_step(args, params: SimParams, game, protocol, x0, mu0) -> SimParams:
    """``params`` with the default step halved while one Euler step from the
    start could take a share negative; a ``--step`` given is kept as it is."""
    if args.step is not None:
        return params
    z0 = np.concatenate((core._check_primal(game, x0), core._check_dual(game, mu0)))
    limit = dynamics._positivity_limit(game, protocol, z0)
    if not limit > 0.0:
        raise ConfigurationError(
            f"the out-rates at the start x0 = {x0.x.tolist()}, mu0 = {mu0.mu.tolist()} "
            "overflow: no step keeps it on the simplex"
        )
    step = params.step
    while step >= limit:
        step /= 2
    if step < params.step:
        why = f"the default {params.step:g} is beyond the positivity limit {limit:.3g} at the start"
        print(f"note: step {step:g}, as {why}", file=sys.stderr)
    return dataclasses.replace(params, step=step)


def write_trajectory_csv(path: str, game: GameSpec, traj: Trajectory, record_every: int = 1) -> None:
    """Write the recorded trajectory as deterministic CSV.

    Rows are every ``record_every``-th recorded step plus always the final
    one.  Each float is written as ``repr`` writes it (shortest round-trip
    form), NaN as the literal token ``NaN``.  The rows are written
    ``CSV_CHUNK`` at a time, each chunk rendered in one numpy pass by
    ``_shortest.CsvRows``.

    Where ``os.fork`` and ``os.sched_getaffinity`` exist, a file of at
    least two ``CSV_PART_MIN`` rows is split into contiguous ranges of whole
    chunks, one per usable core: this process renders the first and a
    forked child each later one, and the parts are appended in order.  The
    chunks, and so the bytes, are those of the serial render.
    """
    if record_every < 1:
        raise ConfigurationError("--record-every must be at least 1")
    header = (
        ["t"]
        + [f"x_{i}" for i in range(1, game.n + 1)]
        + [f"mu_{k}" for k in range(game.q + 1)]
        + ["V", "p", "g_max", "xdot_norm", "mudot_norm"]
    )
    # largest value over the real constraints; NaN when there are none
    if game.q:
        g_max = traj.constraints[:, 1:].max(axis=1)
    else:
        g_max = np.full(len(traj), math.nan)
    columns = (
        traj.times,
        traj.primal,
        traj.dual,
        traj.lyapunov,
        traj.potential,
        g_max,
        traj.primal_field_norm,
        traj.dual_field_norm,
    )
    rows = np.arange(0, len(traj), record_every)
    if rows[-1] != len(traj) - 1:
        rows = np.append(rows, len(traj) - 1)
    # whole chunks per part, so that every part renders the serial writer's chunks
    chunks = -(-rows.size // CSV_CHUNK)
    size = -(-chunks // _csv_parts(rows.size)) * CSV_CHUNK
    parts = [rows[lo : lo + size] for lo in range(0, rows.size, size)]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if len(parts) == 1:
            _write_rows(fh, columns, rows)
        else:
            _write_parts(fh, path, columns, parts)


def _csv_parts(rows: int) -> int:
    """Parts to render ``rows`` CSV rows in: one per usable core, none under ``CSV_PART_MIN`` rows."""
    most = rows // CSV_PART_MIN
    if most < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(most, len(os.sched_getaffinity(0)))


def _write_rows(fh, columns, rows) -> None:
    """Write ``rows`` of ``columns`` into the binary file ``fh``, ``CSV_CHUNK`` rows per rendered block."""
    render = _shortest.CsvRows().render
    for lo in range(0, rows.size, CSV_CHUNK):
        chunk = rows[lo : lo + CSV_CHUNK]
        fh.write(render(np.column_stack([col[chunk] for col in columns])))


def _write_parts(fh, path: str, columns, parts: list) -> None:
    """Render ``parts[0]`` into ``fh`` and each later part in a forked child; append those in order.

    Each child streams its part into an unlinked temporary file opened
    before the fork and leaves through ``os._exit``.  Every child is reaped
    before this returns; if this process fails first, it kills them.  A
    child that exits nonzero raises ``OSError`` naming its part.
    """
    tmps, live = [], []
    try:
        for part in parts[1:]:
            tmps.append(tempfile.TemporaryFile())
            with warnings.catch_warnings():
                # Python 3.12 warns on a fork in a process with threads (BLAS
                # starts some).  The child takes no lock they may hold: it
                # runs no BLAS product, logs and prints nothing, and imports
                # nothing.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _render_in_child(tmps[-1], columns, part)
            live.append(pid)
        _write_rows(fh, columns, parts[0])
        fh.flush()
        for k, (pid, tmp) in enumerate(zip(list(live), tmps), 2):
            status = os.waitpid(pid, 0)[1]
            live.remove(pid)
            if status:
                raise OSError(
                    f"{path}: part {k} of {len(parts)} (rows {parts[k - 1][0]}..{parts[k - 1][-1]}) "
                    f"failed in its child process (exit code {os.waitstatus_to_exitcode(status)})"
                )
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh)
    except BaseException:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in live:
            os.waitpid(pid, 0)
        for tmp in tmps:
            tmp.close()


def _render_in_child(tmp, columns, rows) -> None:
    """In a forked child: render ``rows`` into ``tmp`` and exit, with 0 on success.  Never returns."""
    status = 1
    try:
        _write_rows(tmp, columns, rows)
        tmp.flush()
        status = 0
    finally:
        os._exit(status)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _summary(game_label: str, traj: Trajectory, report, out_path: str, seed) -> dict:
    return {
        "game": game_label,
        "seed": seed,
        "steps": len(traj) - 1,
        "final_time": float(traj.times[-1]),
        "converged": traj.converged,
        "final_primal_field_norm": float(traj.primal_field_norm[-1]),
        "final_dual_field_norm": float(traj.dual_field_norm[-1]),
        "final_lyapunov": float(traj.lyapunov[-1]),
        "out": out_path,
        "report": report.as_dict(),
    }


def _seed_path(base: str, seed: int) -> str:
    stem, ext = os.path.splitext(base)
    return f"{stem}-seed{seed}{ext or '.csv'}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    game = _resolve_game(args.game)
    protocol = PROTOCOLS[args.protocol]()
    out_base = args.out or os.path.join(_out_root(), "trajectory.csv")

    if args.record_every < 1:
        raise _CliError("--record-every must be at least 1")
    # refused before any integration, with the report's own message
    equilibrium._check_tolerance(args.report_tol)
    if args.seeds is not None:
        # every seed would run the same integration
        _refuse_unused_seed("--seeds", args.x0, game, args.game)
        seeds = list(args.seeds)
    elif args.seed is not None:
        _refuse_unused_seed("--seed", args.x0, game, args.game)
        seeds = [args.seed]
    else:
        seeds = [DEFAULT_SEED]
    params = SimParams(
        horizon=args.horizon,
        step=SimParams.step if args.step is None else args.step,
        integrator=args.integrator,
        convergence_tol=args.tol,
        convergence_window=args.window,
    )

    def run_one(seed: int) -> dict:
        x0, mu0, used_seed = _initial_conditions(game, args.x0, args.mu0, seed)
        run_params = _fit_step(args, params, game, protocol, x0, mu0)
        traj = dynamics.integrate(game, protocol, x0, mu0, run_params)
        report = equilibrium.in_equilibria_set(
            game, traj.final_primal, traj.final_dual, tol=args.report_tol
        )
        path = _seed_path(out_base, seed) if len(seeds) > 1 else out_base
        write_trajectory_csv(path, game, traj, args.record_every)
        if traj.converged and report.feasibility_residual > args.report_tol:
            # a Nash point of the joint game can violate a constraint when the
            # dual mass is too small to hold the optimal prices
            print(
                f"infeasible endpoint in {path}: g_max = {report.feasibility_residual:.6g} exceeds "
                f"--report-tol {args.report_tol:g} at dual mass {game.dual_mass:g}",
                file=sys.stderr,
            )
        return _summary(args.game, traj, report, path, used_seed)

    summaries = [run_one(seed) for seed in seeds]
    print(_dump_json(summaries if len(seeds) > 1 else summaries[0]), end="")

    if not all(s["converged"] for s in summaries):
        return _EXIT_NO_CONVERGENCE
    infeasible = any(s["report"]["feasibility_residual"] > args.report_tol for s in summaries)
    return _EXIT_THRESHOLDS if infeasible else _EXIT_OK


def cmd_verify(args) -> int:
    game = _resolve_game(args.game)
    with open(args.state, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{args.state}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict) or "x" not in data or "mu" not in data:
        raise ConfigurationError(f'{args.state}: expected an object with "x" and "mu"')
    try:
        x = PrimalState(np.asarray(data["x"], dtype=float), game.primal_mass)
        mu = DualState(np.asarray(data["mu"], dtype=float), game.dual_mass)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f'{args.state}: invalid "x" or "mu" ({exc})') from exc
    core._check_primal(game, x)
    core._check_dual(game, mu)
    report = equilibrium.in_equilibria_set(game, x, mu, tol=args.tol)
    print(_dump_json(report.as_dict()), end="")
    return _EXIT_OK if report.in_set else _EXIT_THRESHOLDS


def cmd_bound(args) -> int:
    game = _resolve_game(args.game)
    x = PrimalState(_parse_vector(args.slater, "--slater"), game.primal_mass)
    slater = equilibrium.slater_point(game, x)
    optimum = None
    if args.p_star_upper is not None:
        p_upper = args.p_star_upper
    else:
        optimum = equilibrium.optimum_solve(game)
        p_upper = optimum.upper
    bound = equilibrium.dual_mass_bound(game, slater, p_upper)
    out = {
        "bound": bound,
        "dual_mass": game.dual_mass,
        "sufficient": game.dual_mass >= bound,
        "margin": slater.margin,
        "p_star_upper": p_upper,
    }
    if optimum is not None:
        out["optimum_dual_mass"] = float(optimum.multipliers.sum())
    print(_dump_json(out), end="")
    return _EXIT_OK


def _repro_checks(game, traj, report, audit) -> list:
    """Repro criteria: endpoint and prices against the certified equilibrium, and V's audit."""
    optimum = equilibrium.optimum_solve(game)
    g_end = traj.constraints[-1][1:].max()
    deviation = float(np.max(np.abs(traj.primal[-1] - optimum.point.x)))
    price_error = float(np.max(np.abs(traj.dual[-1][1:] - optimum.multipliers)))
    return [
        ("converged", traj.converged, f"converged={traj.converged} at t={traj.times[-1]:.2f}"),
        ("endpoint_feasible", g_end <= 1e-6, f"max_k g_k = {g_end:.3e} (limit 1e-6)"),
        ("optimum_match", deviation <= 1e-3, f"|x - x*|_inf = {deviation:.3e} (limit 1e-3)"),
        (
            "price_match",
            price_error <= 1e-3,
            f"|mu[1:] - lambda*|_inf = {price_error:.3e} (limit 1e-3)",
        ),
        (
            "equilibrium_verdict",
            report.in_set,
            f"verdict={report.verdict}, Nash gaps {report.primal_nash_residual:.3e}/"
            f"{report.dual_nash_residual:.3e} (limit {REPORT_TOL})",
        ),
        (
            "lyapunov_monotone",
            audit.fraction_nonincreasing >= AUDIT_FRACTION,
            f"fraction nonincreasing = {audit.fraction_nonincreasing:.6f} (limit {AUDIT_FRACTION})",
        ),
        (
            "lyapunov_nonnegative",
            audit.nonnegativity_ok,
            f"nonnegativity_ok={audit.nonnegativity_ok}",
        ),
    ]


def cmd_repro(args) -> int:
    if args.record_every < 1:
        raise _CliError("--record-every must be at least 1")
    params = SimParams(args.horizon, SimParams.step if args.step is None else args.step)
    protocol = PROTOCOLS["smith"]()
    game = games.paper_congestion() if args.experiment == "congestion" else games.paper_rps()
    seed = DEFAULT_SEED
    if args.seed is not None:
        _refuse_unused_seed("--seed", None, game, game.name)
        seed = args.seed
    x0, mu0, _ = _initial_conditions(game, None, None, seed)
    params = _fit_step(args, params, game, protocol, x0, mu0)
    out_dir = args.out_dir or os.path.join(_out_root(), f"repro-{args.experiment}")

    traj = dynamics.integrate(game, protocol, x0, mu0, params)
    report = equilibrium.in_equilibria_set(game, traj.final_primal, traj.final_dual, tol=REPORT_TOL)
    audit = monotonicity_audit(game, protocol, protocol, traj, audit_tol=AUDIT_TOL)

    os.makedirs(out_dir, exist_ok=True)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), game, traj, args.record_every)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(_dump_json(report.as_dict()))
    audit_payload = {
        "audit_tol": AUDIT_TOL,
        "samples": len(traj),
        "max_increase": audit.max_increase,
        "violation_steps": list(audit.violation_steps),
        "fraction_nonincreasing": audit.fraction_nonincreasing,
        "nonnegativity_ok": audit.nonnegativity_ok,
    }
    with open(os.path.join(out_dir, "audit.json"), "w", encoding="utf-8") as fh:
        fh.write(_dump_json(audit_payload))

    checks = _repro_checks(game, traj, report, audit)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        print(f"failed criteria: {', '.join(failed)}")
        return _EXIT_THRESHOLDS
    print(f"all criteria passed; outputs in {out_dir}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_game_arg(sub):
    sub.add_argument(
        "--game",
        required=True,
        help="builtin name (paper-congestion, paper-rps) or path to a game JSON file",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="popdyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate the coupled dynamics and write a trajectory")
    _add_game_arg(sim)
    sim.add_argument("--protocol", default="smith", choices=sorted(PROTOCOLS))
    sim.add_argument("--step", type=float, help="integration step (default 0.01, halved as needed)")
    sim.add_argument("--horizon", type=float, default=200.0, help="time horizon (seconds)")
    sim.add_argument("--integrator", default="euler", choices=("euler", "rk4"))
    sim.add_argument("--tol", type=float, default=1e-6, help="convergence tolerance on field norms")
    sim.add_argument("--window", type=int, default=100, help="consecutive quiet steps to converge")
    seeds = sim.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=_seed, help="seed for the default random start (default 0)")
    seeds.add_argument("--seeds", type=_parse_seed_range, help="a..b inclusive; one run and file per seed")
    sim.add_argument("--x0", default=None, help="explicit start, comma-separated")
    sim.add_argument("--mu0", default=None, help="explicit dual start, comma-separated")
    sim.add_argument("--out", default=None, help="trajectory CSV path")
    sim.add_argument("--record-every", type=int, default=1, help="keep every Nth step in the CSV")
    sim.add_argument(
        "--report-tol", type=float, default=REPORT_TOL, help="bound on both Nash gaps and on g_max"
    )
    sim.set_defaults(handler=cmd_simulate)

    ver = sub.add_parser("verify", help="equilibrium membership report for a stored state")
    _add_game_arg(ver)
    ver.add_argument("--state", required=True, help='JSON file with "x" and "mu"')
    ver.add_argument("--tol", type=float, default=REPORT_TOL, help="bound on both Nash gaps")
    ver.set_defaults(handler=cmd_verify)

    bnd = sub.add_parser("bound", help="sufficient dual mass from an interior point")
    _add_game_arg(bnd)
    bnd.add_argument("--slater", required=True, help="strictly feasible interior point, comma-separated")
    bnd.add_argument(
        "--p-star-upper",
        type=float,
        default=None,
        help="certified upper bound on the optimum (default: the interior-point "
        "solver's weak-duality bound)",
    )
    bnd.set_defaults(handler=cmd_bound)

    rep = sub.add_parser("repro", help="run a benchmark experiment and check its thresholds")
    rep.add_argument("experiment", choices=("congestion", "rps"))
    rep.add_argument("--seed", type=_seed, help="seed for the congestion random start (default 0)")
    rep.add_argument("--step", type=float, help="as for simulate")
    rep.add_argument("--horizon", type=float, default=200.0)
    rep.add_argument("--record-every", type=int, default=1)
    rep.add_argument("--out-dir", default=None, help="output directory (default under POPDYN_OUT_DIR)")
    rep.set_defaults(handler=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (
        ConfigurationError,
        UnsupportedOperationError,
        SlaterViolationError,
        InfeasibleInstanceError,
        IntegrationDivergedError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
