#!/usr/bin/env python3
"""Benchmark harness for popdyn (numpy and the standard library only).

Run from the repository root, one workload per process:

    for w in congestion-repro rps-fine; do
        python3 bench/run.py --workload $w --seed 0 --seconds 60 --trace 0
    done

and the self-tests with ``python3 -m pytest bench -q``.

Each run is a closed loop with one client: the next unit starts when the
previous one has ended, and no unit starts once the elapsed time plus the
last unit's time would pass ``--seconds`` (at least one unit always runs).
Every unit calls popdyn in this process, either through ``popdyn.cli.main``
or through the public library functions, with popdyn imported from this
checkout's ``src`` by absolute path.  Unit ``i`` of a run draws its input
from ``--seed`` + ``i``, so the same seed gives the same inputs.

Workloads (why each is here):

* ``congestion-repro``: ``repro congestion --seed k``, the acceptance-gate
  run.  It is the only one that runs every layer: integrate, audit, report,
  CSV and the 1,373,701-point grid oracle on the affine constraint path.
* ``rps-fine``: library ``integrate`` on ``paper-rps`` at h = 0.001 and
  horizon 200, then ``monotonicity_audit``.  The per-step kernel on the
  quadratic constraint path is most of the work; no oracle, CSV or CLI.

``simulate --seeds a..a+9`` over the CLI's thread pool is not a workload:
ten pooled trajectories vary with the seeds' mix of short and long runs and
with thread scheduling, and its spread over seeds did not fit the bound in
a run of this length on a shared 2-core machine.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (the
median of several fresh interpreters each importing popdyn, building the
workload's game and validating the protocol), ``wall_s`` (median wall time
of one unit), ``steps_per_s`` (recorded integration steps over the summed
unit wall time) and ``peak_rss_mb``.  ``failed_share`` is printed in the
table and carried by the ``attempted``/``failed`` fields of the result.

With ``--trace 1`` each unit runs twice in a row, untraced and then with
spans installed on the module attributes the CLI looks up at call time
(``trace.overhead_share`` compares the two), and the run reports per-layer
metrics plus per-call microbenchmarks at states taken from the workload's
own trajectory.  A metric whose layer a workload never calls reads 0.

A unit fails on a nonzero exit code or a ``FAIL`` line, on a run that did
not converge, on an audit fraction below 0.999 or a negative ``V``, or on
an endpoint farther than ``ENDPOINT_TOL`` from the frozen reference.  A
failed unit counts in ``failed_share`` and keeps its time in ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also writes
its record (machine, units, metrics and, when traced, the spans) under
``bench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Endpoint references, frozen so that a change to the program's own oracle
# or constants cannot move them.  CONGESTION_REF is
# oracle_solve(paper_congestion(), resolution=200, refine_iters=2000, seed=0)
# at the commit that introduced this benchmark; RPS_REF is the paper's
# rock-paper-scissors endpoint.
CONGESTION_REF = (0.4, 0.075, 0.125, 0.4)
RPS_REF = (0.313, 0.044, 0.643)
# The congestion flow settles 4.7e-4 from the reference grid point (the
# oracle's refinement stays on that vertex) and the rps reference is
# rounded to three decimals, so 5e-4 of either deviation is expected;
# 2e-3 leaves room for the spread over start states while staying five
# times tighter than the CLI's own 1e-2 gate.
ENDPOINT_TOL = 2e-3
AUDIT_FRACTION = 0.999

SETUP_REPEATS = 9
BUILD_REPEATS = 21
MICRO_CALLS = 2000
CSV_CALLS = 1000
CSV_ROWS = 10

SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import popdyn; "
    "popdyn.builtin_game(sys.argv[2]); popdyn.validate_protocol(popdyn.smith_protocol()); "
    "print('ready', flush=True)"
)


class BenchError(RuntimeError):
    """The harness cannot run here; no result is printed."""


def cap_blas_threads() -> dict:
    """Cap BLAS threads at the usable core count; call before numpy loads."""
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= NPROC):
            os.environ[var] = str(NPROC)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def load_popdyn():
    """Import popdyn from this checkout's ``src`` by absolute path, or fail."""
    if not (SRC / "popdyn" / "__init__.py").is_file():
        raise BenchError(f"no popdyn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import popdyn
    import popdyn.cli

    if Path(popdyn.__file__).resolve().parent != SRC / "popdyn":
        raise BenchError(f"popdyn was imported from {popdyn.__file__}, not from {SRC}")
    return popdyn


def machine_info(blas_threads: dict) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
    }


# ---------------------------------------------------------------------------
# units


@dataclass
class Unit:
    input: object
    wall: float
    steps: int = 0
    deviation: float = 0.0  # largest endpoint distance from the reference
    problems: list = field(default_factory=list)


class Context:
    """What a run shares between its units: popdyn, the game, a work directory."""

    def __init__(self, popdyn, game_name: str, work: Path):
        self.pd = popdyn
        self.game = popdyn.builtin_game(game_name)
        self.protocol = popdyn.smith_protocol()
        self.work = work


def call_cli(pd, argv) -> tuple[int, str]:
    """Run ``popdyn.cli.main`` in this process and capture its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pd.cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def timed(unit: Unit, fn, *args):
    """Call ``fn`` and add its wall time to ``unit``; an exception fails the unit."""
    t0 = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # the unit fails and keeps its time
        traceback.print_exc()
        unit.problems.append(f"raised {type(exc).__name__}: {exc}")
        return None
    finally:
        unit.wall += time.perf_counter() - t0


def check_endpoint(unit: Unit, x, ref) -> None:
    dev = max(abs(a - b) for a, b in zip(x, ref))
    unit.deviation = max(unit.deviation, dev)
    if not dev <= ENDPOINT_TOL:
        unit.problems.append(f"endpoint {list(x)} is {dev:.2e} from {list(ref)}")


def check_cli(unit: Unit, code: int, text: str) -> None:
    if code != 0:
        unit.problems.append(f"exit code {code}")
    unit.problems.extend(ln for ln in text.splitlines() if ln.startswith("FAIL"))


def check_csv(unit: Unit, path: Path, n: int, ref) -> int:
    """Check a trajectory CSV's ``V`` column and endpoint; return its steps."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        iv = header.index("V")
        rows = 0
        v_min = float("inf")
        last = None
        for last in fh:
            rows += 1
            v_min = min(v_min, float(last.split(",", iv + 1)[iv]))
    if not v_min >= 0.0:
        unit.problems.append(f"{path.name}: V reaches {v_min!r}")
    check_endpoint(unit, [float(c) for c in last.split(",")[1 : n + 1]], ref)
    return rows - 1


class CongestionRepro:
    name = "congestion-repro"
    game = "paper-congestion"

    def __init__(self, horizon: float = 200.0):
        self.horizon = horizon

    def inputs(self, seed: int, i: int) -> int:
        return seed + i

    def run_unit(self, ctx: Context, k: int) -> Unit:
        unit = Unit(k, 0.0)
        out = ctx.work / "repro"
        argv = ["repro", "congestion", "--seed", k, "--out-dir", out, "--horizon", self.horizon]
        code, text = timed(unit, call_cli, ctx.pd, argv) or (None, "")
        if code is None:
            return unit
        check_cli(unit, code, text)
        if not any(ln.startswith("PASS converged") for ln in text.splitlines()):
            unit.problems.append("not converged")
        try:
            with open(out / "audit.json", encoding="utf-8") as fh:
                audit = json.load(fh)
            if not audit["fraction_nonincreasing"] >= AUDIT_FRACTION:
                unit.problems.append(f"audit fraction {audit['fraction_nonincreasing']}")
            if not audit["nonnegativity_ok"]:
                unit.problems.append("audit: V negative")
            unit.steps = check_csv(unit, out / "trajectory.csv", ctx.game.n, CONGESTION_REF)
        except (OSError, KeyError, ValueError) as exc:
            unit.problems.append(f"unreadable output: {exc}")
        return unit


class RpsFine:
    name = "rps-fine"
    game = "paper-rps"

    def __init__(self, horizon: float = 200.0):
        self.horizon = horizon

    def inputs(self, seed: int, i: int) -> int:
        return seed + i

    def start(self, ctx: Context, k: int):
        pd, game = ctx.pd, ctx.game
        if k == 0:
            x0 = pd.PrimalState([game.primal_mass / game.n] * game.n, game.primal_mass)
        else:
            x0 = pd.sample_simplex(game.n, game.primal_mass, k)
        mu0 = pd.DualState([game.dual_mass] + [0.0] * game.q, game.dual_mass)
        return x0, mu0

    def run_unit(self, ctx: Context, k: int) -> Unit:
        pd, game, smith = ctx.pd, ctx.game, ctx.protocol
        unit = Unit(k, 0.0)
        x0, mu0 = self.start(ctx, k)
        params = pd.SimParams(horizon=self.horizon, step=0.001)

        def work():
            # module attributes are looked up at call time, so traced runs see the spans
            traj = pd.dynamics.integrate(game, smith, x0, mu0, params)
            return traj, pd.lyapunov.monotonicity_audit(game, smith, smith, traj, audit_tol=1e-8)

        done = timed(unit, work)
        if done is None:
            return unit
        traj, audit = done
        unit.steps = len(traj) - 1
        if not traj.converged:
            unit.problems.append("not converged")
        if not audit.fraction_nonincreasing >= AUDIT_FRACTION:
            unit.problems.append(f"audit fraction {audit.fraction_nonincreasing}")
        if not (audit.nonnegativity_ok and traj.lyapunov.min() >= 0.0 and audit.values.min() >= 0.0):
            unit.problems.append("V negative")
        check_endpoint(unit, traj.primal[-1].tolist(), RPS_REF)
        return unit


WORKLOADS = {wl.name: wl for wl in (CongestionRepro, RpsFine)}


def run_loop(seconds: float, step) -> None:
    """Closed loop: call ``step(i)`` for i = 0, 1, .. until the next call would end past ``seconds``."""
    start = time.perf_counter()
    i, last = 0, 0.0
    while i == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        step(i)
        last = time.perf_counter() - t0
        i += 1


# ---------------------------------------------------------------------------
# metrics


def quantile(samples, pct: int) -> float:
    return statistics.quantiles(samples, n=100)[pct - 1]


def measure_setup(game: str) -> list:
    """Times from starting a fresh interpreter to popdyn being ready."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), game],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up child exited with {proc.returncode}")
    # the first start only warms the file cache
    return times[1:]


def end_to_end(units: list, setups: list) -> dict:
    walls = [u.wall for u in units]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "steps_per_s": (sum(u.steps for u in units) / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


class RepairCounter(logging.Handler):
    """Sums the steps reported by popdyn.dynamics' simplex-repair warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.steps = 0

    def emit(self, record):
        if isinstance(record.args, tuple) and len(record.args) > 1:
            self.steps += int(record.args[1])


def install_spans(tracer: spans.Tracer, pd, kept: list) -> None:
    """Wrap the six layer entry points; ``kept`` collects the first unit's trajectories."""

    def integrate_counts(args, traj):
        if not kept or kept[0][0] == tracer.unit:
            kept.append((tracer.unit, traj))
        return {"steps": len(traj) - 1}

    def audit_counts(args, audit):
        return {"rows": int(audit.values.size)}

    def csv_counts(args, _):
        path, _, traj = args[:3]
        every = args[3] if len(args) > 3 else 1
        return {"rows": len(range(0, len(traj), every)) + ((len(traj) - 1) % every != 0),
                "bytes": os.path.getsize(path)}

    tracer.install(pd.dynamics, "integrate", "dynamics.integrate", integrate_counts)
    tracer.install(pd.dynamics, "validate_protocol", "dynamics.validate_protocol")
    tracer.install(pd.cli, "monotonicity_audit", "lyapunov.audit", audit_counts)
    tracer.install(pd.lyapunov, "monotonicity_audit", "lyapunov.audit", audit_counts)
    tracer.install(pd.cli, "write_trajectory_csv", "cli.write_trajectory_csv", csv_counts)
    tracer.install(pd.equilibrium, "oracle_solve", "equilibrium.oracle_solve")
    tracer.install(pd.equilibrium, "in_equilibria_set", "equilibrium.in_equilibria_set")


def per_call_us(fn, arg_list) -> list:
    out = []
    for args in arg_list:
        t0 = time.perf_counter_ns()
        fn(*args)
        out.append((time.perf_counter_ns() - t0) / 1e3)
    return out


def micro_benchmarks(ctx: Context, trajs: list, seed: int) -> dict:
    """Per-call cost of the public layer functions at states on the workload's trajectories."""
    import numpy as np

    pd, game, smith = ctx.pd, ctx.game, ctx.protocol
    trajs = sorted(trajs, key=lambda t: tuple(t.primal[0]))
    primal = np.concatenate([t.primal for t in trajs])
    dual = np.concatenate([t.dual for t in trajs])
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, len(primal), MICRO_CALLS)
    states = [
        (pd.PrimalState(primal[i], game.primal_mass), pd.DualState(dual[i], game.dual_mass))
        for i in rows
    ]
    samples = {
        "dynamics.primal_field_us": per_call_us(pd.primal_field, [(game, smith, x, mu) for x, mu in states]),
        "dynamics.dual_field_us": per_call_us(pd.dual_field, [(game, smith, x, mu) for x, mu in states]),
        "core.payoff_us": per_call_us(pd.primal_dual_payoff, [(game, x, mu) for x, mu in states]),
        "core.constraint_values_us": per_call_us(pd.constraint_values, [(game, x) for x, _ in states]),
        "lyapunov.value_us": per_call_us(pd.lyapunov_value, [(game, smith, smith, x, mu) for x, mu in states]),
    }
    traj = trajs[0]
    path = ctx.work / "micro.csv"
    slices = []
    for a in rng.integers(0, max(1, len(traj) - CSV_ROWS), CSV_CALLS):
        sl = slice(int(a), int(a) + CSV_ROWS)
        slices.append((path, game, replace(
            traj, times=traj.times[sl], primal=traj.primal[sl], dual=traj.dual[sl],
            potential=traj.potential[sl], constraints=traj.constraints[sl],
            lyapunov=traj.lyapunov[sl], primal_field_norm=traj.primal_field_norm[sl],
            dual_field_norm=traj.dual_field_norm[sl],
        )))
    samples["cli.csv_row_us"] = [
        t / len(s[2]) for t, s in zip(per_call_us(pd.cli.write_trajectory_csv, slices), slices)
    ]
    out = {}
    for name, values in samples.items():
        out[f"{name}.p50"] = (quantile(values, 50), "us")
        out[f"{name}.p99"] = (quantile(values, 99), "us")
        out[f"{name}.n"] = (len(values), "count")
    return out


def median_ms(fn, *args) -> float:
    times = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def per_layer(wl, ctx, tracer, traced, untraced, repairs: int) -> dict:
    """Per-layer metrics from the spans of the traced units, per unit or per call."""
    pd = ctx.pd
    units = len(traced)
    by_name: dict[str, list] = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)

    def busy(name):
        return sum(sp.end - sp.start for sp in by_name.get(name, ()))

    def count(name, key):
        return sum(sp.counts.get(key, 0) for sp in by_name.get(name, ()))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    unit_spans = by_name.get("unit", [])
    selfs = [spans.self_time(u, [sp for sp in tracer.spans if sp.parent == u.id]) for u in unit_spans]
    steps = count("dynamics.integrate", "steps")
    n_oracle = len(by_name.get("equilibrium.oracle_solve", ()))
    oracle_call = ratio(busy("equilibrium.oracle_solve"), n_oracle)
    grid = 0.0
    if n_oracle:
        t0 = time.perf_counter()
        pd.equilibrium.oracle_solve(ctx.game, resolution=200, refine_iters=0, seed=0)
        grid = time.perf_counter() - t0
    untraced_wall = sum(u.wall for u in untraced)
    m = {
        "games.build_ms": (median_ms(pd.builtin_game, wl.game), "ms"),
        "dynamics.validate_protocol_ms": (median_ms(pd.dynamics.validate_protocol, ctx.protocol), "ms"),
        "dynamics.integrate_s": (busy("dynamics.integrate") / units, "s"),
        "dynamics.steps": (steps / units, "count"),
        "dynamics.step_us": (ratio(busy("dynamics.integrate"), steps, 1e6), "us"),
        "dynamics.repair_warnings": (repairs, "count"),
        "lyapunov.audit_s": (busy("lyapunov.audit") / units, "s"),
        "lyapunov.audit_row_us": (ratio(busy("lyapunov.audit"), count("lyapunov.audit", "rows"), 1e6), "us"),
        "equilibrium.oracle_s": (busy("equilibrium.oracle_solve") / units, "s"),
        "equilibrium.oracle_grid_s": (grid, "s"),
        "equilibrium.oracle_refine_s": (oracle_call - grid if n_oracle else 0.0, "s"),
        "equilibrium.report_ms": (
            ratio(busy("equilibrium.in_equilibria_set"), len(by_name.get("equilibrium.in_equilibria_set", ())), 1e3),
            "ms",
        ),
        "cli.csv_s": (busy("cli.write_trajectory_csv") / units, "s"),
        "cli.csv_row_us": (
            ratio(busy("cli.write_trajectory_csv"), count("cli.write_trajectory_csv", "rows"), 1e6), "us"
        ),
        "cli.csv_bytes": (count("cli.write_trajectory_csv", "bytes") / units, "B"),
        "cli.self_s": (statistics.fmean(selfs), "s"),
        "trace.overhead_share": ((sum(u.wall for u in traced) - untraced_wall) / untraced_wall, "share"),
        "trace.units": (units, "count"),
    }
    return m


# ---------------------------------------------------------------------------
# entry point


def run(workload: str, seed: int, seconds: float, trace: bool, out_root: Path = OUT) -> dict:
    blas_threads = cap_blas_threads()
    pd = load_popdyn()
    wl = WORKLOADS[workload]()
    out_root.mkdir(parents=True, exist_ok=True)
    work = out_root / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_info(blas_threads)}
    try:
        ctx = Context(pd, wl.game, work)
        if not trace:
            record["setup_s"] = measure_setup(wl.game)
            units = []
            run_loop(seconds, lambda i: units.append(wl.run_unit(ctx, wl.inputs(seed, i))))
            metrics = end_to_end(units, record["setup_s"])
        else:
            tracer, trajs, repairs = spans.Tracer(), [], RepairCounter()
            dyn_log = logging.getLogger("popdyn.dynamics")
            untraced, traced = [], []

            def pair(i):
                # each input runs untraced and then traced, so drift in machine speed
                # between the two cancels out of trace.overhead_share
                k = wl.inputs(seed, i)
                untraced.append(wl.run_unit(ctx, k))
                install_spans(tracer, pd, trajs)
                dyn_log.addHandler(repairs)
                try:
                    with tracer.unit_span():
                        traced.append(wl.run_unit(ctx, k))
                finally:
                    dyn_log.removeHandler(repairs)
                    tracer.uninstall()

            run_loop(seconds, pair)
            metrics = per_layer(wl, ctx, tracer, traced, untraced, repairs.steps)
            metrics.update(micro_benchmarks(ctx, [t for _, t in trajs], seed))
            units = untraced + traced
            record["spans"] = [vars(sp) for sp in tracer.spans]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["attempted"] = len(units)
    record["failed"] = sum(1 for u in units if u.problems)
    record["failed_share"] = record["failed"] / len(units)
    record["units"] = [vars(u) for u in units]
    record["metrics"] = {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}
    name = f"{workload}-seed{seed}{'-trace' if trace else ''}.json"
    with open(out_root / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return record


def main(argv=None, out_root: Path = OUT) -> int:
    parser = argparse.ArgumentParser(description="popdyn benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), out_root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(f"# {args.workload} seed {args.seed}: {record['attempted']} units, {record['failed']} failed")
    print(f"# machine: {json.dumps(record['machine'])}")
    for name, m in record["metrics"].items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_share':34s} {record['failed_share']:14.6g} share")
    result = {key: record[key] for key in ("attempted", "failed", "metrics")}
    print(json.dumps({"correct": record["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
