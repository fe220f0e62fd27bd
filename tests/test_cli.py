"""Command-line interface: parsing, outputs, exit codes, determinism."""

import dataclasses
import errno
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

import popdyn as pd
from popdyn import cli

from conftest import null_dual, read_csv_rows


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(autouse=True)
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("POPDYN_OUT_DIR", str(tmp_path))
    return tmp_path


# --- argument handling ---


def test_no_arguments_is_a_usage_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert err


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, _ = run_cli(["transmogrify"], capsys)
    assert code == 1


def test_unknown_game_lists_builtins(capsys):
    code, _, err = run_cli(["simulate", "--game", "nope", "--horizon", "1"], capsys)
    assert code == 1
    assert "paper-congestion" in err


def test_malformed_start_vector(capsys):
    code, _, err = run_cli(
        ["simulate", "--game", "paper-rps", "--x0", "0.5,0.5", "--horizon", "1"], capsys
    )
    assert code == 1
    assert err


def test_bad_step_is_a_usage_error(capsys):
    code, _, _ = run_cli(["simulate", "--game", "paper-rps", "--step", "-1"], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "horizon, step", [("1e308", "1e-300"), ("inf", "1"), ("inf", "inf"), ("1e300", "1")]
)
def test_unusable_step_count_is_a_usage_error(horizon, step, capsys):
    argv = ["simulate", "--game", "paper-rps", "--horizon", horizon, "--step", step]
    code, _, err = run_cli(argv, capsys)
    assert code == cli._EXIT_USAGE
    assert err.startswith("error: ")


# --- simulate ---


def test_simulate_does_not_revalidate_registered_protocols(out_root, monkeypatch, capsys):
    def refuse(protocol):
        raise AssertionError("validate_protocol ran per call")

    monkeypatch.setattr(pd.dynamics, "validate_protocol", refuse)
    code, _, _ = run_cli(["simulate", "--game", "paper-rps", "--horizon", "1"], capsys)
    assert code == 2


def test_simulate_takes_no_protocol_flag(out_root, capsys):
    # the CLI runs Smith; library callers pass any Protocol to integrate
    code, _, err = run_cli(["simulate", "--game", "paper-rps", "--protocol", "smith"], capsys)
    assert code == cli._EXIT_USAGE
    assert "unrecognized arguments: --protocol smith" in err


def test_csv_g_max_is_the_largest_constraint_value(out_root, capsys):
    # both caps stay slack, so g_max is negative and must not see the null strategy's 0
    spec = {
        "n": 2,
        "primal_mass": 1.0,
        "dual_mass": 1.0,
        "fitness": {"type": "linear", "matrix": [[-1.0, 0.0], [0.0, -1.0]]},
        "constraints": [
            {"type": "affine", "a": [1.0, 0.0], "b": 2.0},
            {"type": "affine", "a": [0.0, 1.0], "b": 3.0},
        ],
    }
    out_path = out_root / "traj.csv"
    for q in (2, 0):
        spec["constraints"] = spec["constraints"][:q]
        path = out_root / f"slack{q}.json"
        path.write_text(json.dumps(spec))
        argv = ["simulate", "--game", str(path), "--horizon", "1", "--out", str(out_path)]
        run_cli(argv, capsys)
        header, rows = read_csv_rows(out_path)
        got = [row[header.index("g_max")] for row in rows]
        if q == 0:
            assert set(got) == {"NaN"}
            continue
        for row, g_max in zip(rows, got):
            x1, x2 = float(row[1]), float(row[2])
            assert abs(float(g_max) - max(x1 - 2.0, x2 - 3.0)) <= 1e-15


def reference_trajectory_csv(path, game, traj, record_every=1):
    """The trajectory CSV written cell by cell: ``repr`` of each float, ``NaN`` for NaN."""

    def fmt(value):
        value = float(value)
        return "NaN" if math.isnan(value) else repr(value)

    header = (
        ["t"]
        + [f"x_{i}" for i in range(1, game.n + 1)]
        + [f"mu_{k}" for k in range(game.q + 1)]
        + ["V", "p", "g_max", "xdot_norm", "mudot_norm"]
    )
    g_max = traj.constraints[:, 1:].max(axis=1) if game.q else np.full(len(traj), math.nan)
    rows = list(range(0, len(traj), record_every))
    if rows[-1] != len(traj) - 1:
        rows.append(len(traj) - 1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in rows:
            cells = (
                [traj.times[i], *traj.primal[i], *traj.dual[i], traj.lyapunov[i], traj.potential[i]]
                + [g_max[i], traj.primal_field_norm[i], traj.dual_field_norm[i]]
            )
            fh.write(",".join(fmt(v) for v in cells) + "\n")


def _unconstrained_run():
    # q = 0: g_max is NaN in every row
    game = pd.GameSpec(
        n=3,
        primal_mass=1.0,
        dual_mass=1.0,
        fitness=pd.MatrixFitness(np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])),
    )
    x0 = pd.sample_simplex(3, 1.0, seed=4)
    # runs to the horizon: 8,001 rows
    params = pd.SimParams(horizon=80.0, convergence_tol=1e-300)
    return game, pd.integrate(game, pd.smith_protocol(), x0, null_dual(game), params)


def _special_values(game, traj):
    # signed zeros, infinities, NaN and extreme exponents in the recorded columns
    special = np.array([-0.0, np.inf, -np.inf, np.nan, 1e-310, 1e22, -1.5e-7, 0.1])
    primal = traj.primal.copy()
    primal[: special.size, 0] = special
    lyap = traj.lyapunov.copy()
    lyap[-special.size :] = special
    return dataclasses.replace(traj, primal=primal, lyapunov=lyap)


def _first_rows(traj, count):
    return dataclasses.replace(
        traj,
        **{
            f.name: getattr(traj, f.name)[:count]
            for f in dataclasses.fields(traj)
            if isinstance(getattr(traj, f.name), np.ndarray)
        },
    )


def _stream_csv(path, game, traj, record_every, commits):
    """Render ``traj`` through ``cli._CsvStream``, committing the row counts ``commits`` first."""
    with cli._CsvStream(str(path), game, record_every) as stream:
        for rows in commits:
            stream.commit(rows, traj)
        stream.finish(traj)
        stream.write()


def _inside_a_chunk(rows, record_every):
    """The least row count from ``rows`` on whose CSV rows end inside a ``CSV_CHUNK``."""
    while -(-rows // record_every) % cli.CSV_CHUNK == 0:
        rows += 1
    return rows


@pytest.fixture(scope="module")
def csv_references():
    # the cell-by-cell reference bytes per (case, record_every), shared by the part counts
    return {}


# one part is the serial writer; with more, the rows reach the forked renderer
# in that many parts, every commit but the last ending inside a chunk
@pytest.mark.parametrize(
    "case, record_every, parts",
    [
        pytest.param(case, every, parts, id=f"{case}-{every}" + (f"-parts{parts}" if parts > 1 else ""))
        for parts in (1, 2, 3, 4)
        for case in ("congestion", "rps", "unconstrained", "special")
        for every in (1, 3, 7)
    ],
)
def test_csv_matches_the_cell_by_cell_reference(
    case, record_every, parts, congestion, congestion_run, rps, rps_run, csv_references, out_root
):
    if case == "congestion":
        game, traj = congestion, congestion_run
    elif case == "rps":
        game, traj = rps, rps_run
    elif case == "unconstrained":
        game, traj = _unconstrained_run()
    else:
        game, traj = congestion, _special_values(congestion, congestion_run)
    # the rows span several chunks, the last one partly filled
    assert len(range(0, len(traj), record_every)) > cli.CSV_CHUNK + 1
    if case == "rps":
        assert np.isnan(traj.potential).all()
    if parts == 1:
        cli.write_trajectory_csv(out_root / "got.csv", game, traj, record_every)
    else:
        commits = [_inside_a_chunk(k * len(traj) // parts, record_every) for k in range(1, parts)]
        _stream_csv(out_root / "got.csv", game, traj, record_every, commits)
    if (case, record_every) not in csv_references:
        reference_trajectory_csv(out_root / "want.csv", game, traj, record_every)
        csv_references[case, record_every] = (out_root / "want.csv").read_bytes()
    assert (out_root / "got.csv").read_bytes() == csv_references[case, record_every]


@pytest.mark.parametrize("parts", [2, 3, 4])
def test_csv_last_part_shorter_than_a_chunk(parts, congestion, congestion_run, out_root):
    # parts - 1 commits of a whole chunk each and a final part of 10 rows
    traj = _first_rows(congestion_run, (parts - 1) * cli.CSV_CHUNK + 10)
    commits = [k * cli.CSV_CHUNK for k in range(1, parts)]
    _stream_csv(out_root / "got.csv", congestion, traj, 1, commits)
    reference_trajectory_csv(out_root / "want.csv", congestion, traj)
    assert (out_root / "got.csv").read_bytes() == (out_root / "want.csv").read_bytes()
    assert sorted(os.listdir(out_root)) == ["got.csv", "want.csv"]


def test_csv_streams_only_with_fork_and_a_second_core(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._can_stream()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not cli._can_stream()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "fork", raising=False)
    assert not cli._can_stream()


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(out_root, monkeypatch):
    """Streams every CLI run, whatever the usable cores, and counts the renderers forked.

    The temporary directory is ``out_root``, so a listing of it shows a
    temporary file left behind.
    """
    started, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(cli, "_can_stream", lambda: True)
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(tempfile, "tempdir", str(out_root))
    return started


def test_csv_writer_leaves_no_child_process(congestion, congestion_run, out_root, forks, capsys):
    _stream_csv(out_root / "got.csv", congestion, congestion_run, 1, [809, 1618])
    assert len(forks) == 1
    _assert_no_child_process()
    code, _, _ = run_cli(["repro", "congestion", "--out-dir", str(out_root / "repro")], capsys)
    assert code == 0
    assert len(forks) == 2
    _assert_no_child_process()
    assert sorted(os.listdir(out_root / "repro")) == ["audit.json", "report.json", "trajectory.csv"]


def test_the_streamed_csv_is_the_serial_one(congestion, congestion_run, out_root, forks, capsys):
    # the renderer forks at the first chunk and reads the rows integrate writes after it
    for every in ("1", "7"):
        path = out_root / f"every{every}.csv"
        argv = ["simulate", "--game", "paper-congestion", "--record-every", every, "--out", str(path)]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        cli.write_trajectory_csv(out_root / "want.csv", congestion, congestion_run, int(every))
        assert path.read_bytes() == (out_root / "want.csv").read_bytes()
    assert len(forks) == 2


SIMULATE = ["simulate", "--game", "paper-congestion", "--out"]


def test_a_streamed_csv_keeps_the_mode_of_the_file_it_replaces(out_root, forks, capsys):
    path = out_root / "sim.csv"
    path.write_bytes(b"old")
    path.chmod(0o640)
    assert run_cli(SIMULATE + [str(path)], capsys)[0] == 0
    assert len(forks) == 1
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert sorted(os.listdir(out_root)) == ["sim.csv"]


def test_a_symlink_and_a_fifo_are_streamed_and_written_through(
    congestion, congestion_run, out_root, forks, capsys
):
    # the child's bytes are written into the path, so the link and the FIFO stay
    cli.write_trajectory_csv(out_root / "want.csv", congestion, congestion_run)
    want = (out_root / "want.csv").read_bytes()
    target, link, fifo = out_root / "target.csv", out_root / "link.csv", out_root / "fifo.csv"
    target.write_bytes(b"old")
    link.symlink_to(target)
    assert run_cli(SIMULATE + [str(link)], capsys)[0] == 0
    assert link.is_symlink() and target.read_bytes() == want
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run_cli(SIMULATE + [str(fifo)], capsys)[0] == 0
    reader.join(timeout=60)
    assert got == [want]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert len(forks) == 2
    _assert_no_child_process()
    assert sorted(os.listdir(out_root)) == ["fifo.csv", "link.csv", "target.csv", "want.csv"]


def test_a_csv_in_a_missing_directory_is_an_error_naming_it(out_root, forks, capsys):
    path = out_root / "missing" / "sim.csv"
    code, out, err = run_cli(SIMULATE + [str(path)], capsys)
    assert code == 1 and not out
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    assert len(forks) == 1
    _assert_no_child_process()
    assert list(out_root.iterdir()) == []


def _popdyn_child(argv, cwd, stream, **kwargs):
    """``popdyn argv`` in a child process on the package this process imported,
    with the CSV streamed to a forked renderer or, without ``stream``, rendered
    after the run."""
    env = os.environ.copy()
    package_root = str(Path(pd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    main = (
        "import sys; from popdyn import cli; "
        f"cli._can_stream = lambda: {stream}; sys.exit(cli.main(sys.argv[1:]))"
    )
    return subprocess.run([sys.executable, "-c", main, *argv], cwd=cwd, env=env, timeout=120, **kwargs)


@pytest.mark.parametrize("stream", [True, False], ids=["streamed", "serial"])
def test_a_csv_sent_to_redirected_standard_streams_comes_before_what_they_print(stream, tmp_path):
    # seed 279 starts beyond the default step's positivity limit, so a note
    # goes to stderr before the run; a CSV written from byte 0 of the
    # redirected file would overwrite it, and the summary JSON printed after
    # the run would overwrite the CSV's head
    argv = ["simulate", "--game", "paper-congestion", "--seed", "279", "--horizon", "2", "--out"]
    plain = _popdyn_child(argv + ["o.csv"], tmp_path, stream, capture_output=True)
    assert plain.returncode == 2
    want = (tmp_path / "o.csv").read_bytes()
    assert want.startswith(b"t,x_1,") and plain.stderr.startswith(b"note: step 0.005")
    with open(tmp_path / "out.txt", "wb") as out:
        proc = _popdyn_child(argv + ["/dev/stdout"], tmp_path, stream, stdout=out)
    assert proc.returncode == 2
    got = (tmp_path / "out.txt").read_bytes()
    assert got[: len(want)] == want
    assert json.loads(got[len(want) :])["out"] == "/dev/stdout"
    with open(tmp_path / "err.txt", "wb") as err:
        proc = _popdyn_child(
            argv + ["/dev/stderr"], tmp_path, stream, stdout=subprocess.DEVNULL, stderr=err
        )
    assert proc.returncode == 2
    assert (tmp_path / "err.txt").read_bytes() == plain.stderr + want


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("stream", [True, False], ids=["streamed", "serial"])
def test_a_csv_write_that_fails_names_the_csv(stream, out_root, forks, monkeypatch, capsys):
    # /dev/full takes no sendfile, so the streamed copy falls back to writes
    monkeypatch.setattr(cli, "_can_stream", lambda: stream)
    code, out, err = run_cli(SIMULATE + ["/dev/full"], capsys)
    assert code == 1 and not out
    assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '/dev/full'\n"
    assert len(forks) == stream
    _assert_no_child_process()


@pytest.mark.parametrize("call", ["tempfile.TemporaryFile", "os.pipe", "os.fork"])
def test_a_renderer_that_cannot_start_leaves_the_csv_to_the_end_of_the_run(
    call, congestion, congestion_run, out_root, forks, monkeypatch, capsys
):
    module, name = call.split(".")
    tried = []

    def refuse(*args, **kwargs):
        tried.append(call)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr({"os": os, "tempfile": tempfile}[module], name, refuse)
    fds = sorted(os.listdir("/proc/self/fd"))
    path = out_root / "sim.csv"
    assert run_cli(SIMULATE + [str(path)], capsys)[0] == 0
    # tried once in the run, and what it opened before the failure is closed
    assert tried == [call]
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert forks == []
    _assert_no_child_process()
    cli.write_trajectory_csv(out_root / "want.csv", congestion, congestion_run)
    assert path.read_bytes() == (out_root / "want.csv").read_bytes()


def test_an_unconverged_run_still_writes_the_whole_csv(congestion, smith, out_root, forks, capsys):
    path = out_root / "short.csv"
    argv = ["simulate", "--game", "paper-congestion", "--horizon", "20", "--out", str(path)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 2
    assert len(forks) == 1
    x0 = pd.sample_simplex(congestion.n, congestion.primal_mass, seed=0)
    traj = pd.integrate(congestion, smith, x0, null_dual(congestion), pd.SimParams(horizon=20.0))
    assert len(traj) == 2001 and not traj.converged
    reference_trajectory_csv(out_root / "want.csv", congestion, traj)
    assert path.read_bytes() == (out_root / "want.csv").read_bytes()


def _congestion_failing_after(calls, fail):
    """paper-congestion whose fitness returns ``fail(x)`` from its ``calls``-th call on."""
    game = pd.paper_congestion()
    count = [0]

    def fitness(x):
        count[0] += 1
        return fail(x) if count[0] >= calls else game.fitness(x)

    failing = dataclasses.replace(game, fitness=pd.CallableFitness(fitness))
    count[0] = 0  # the game's own checks called it
    return failing


class _FitnessFailed(RuntimeError):
    pass


def _raise(x):
    raise _FitnessFailed("fitness failed")


# each fails after the renderer forked at row 809
FAILURES = {
    "fitness-raises": (_raise, None, _FitnessFailed),
    "diverged": (lambda x: np.full(x.size, np.nan), None, "error: trajectory diverged at step "),
    "step-refused": (lambda x: 1e4 * np.ones(x.size) - 1e6 * x, "0.01", "error: step 0.01 is too long"),
}


@pytest.mark.parametrize("command", ["simulate", "repro"])
@pytest.mark.parametrize("failure", list(FAILURES))
def test_a_run_failing_after_the_fork_leaves_nothing(failure, command, out_root, forks, monkeypatch, capsys):
    fail, step, outcome = FAILURES[failure]
    game = _congestion_failing_after(3000, fail)
    monkeypatch.setattr(cli, "_resolve_game", lambda source: game)
    monkeypatch.setattr(pd.games, "paper_congestion", lambda: game)
    out = out_root / "never"
    if command == "simulate":
        argv = ["simulate", "--game", "paper-congestion", "--out", str(out)]
    else:
        argv = ["repro", "congestion", "--out-dir", str(out)]
    argv += ["--step", step] if step else []
    if isinstance(outcome, str):
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1 and stdout == ""
        assert err.startswith(outcome)
    else:
        with pytest.raises(outcome):
            cli.main(argv)
    assert len(forks) == 1
    _assert_no_child_process()
    # no CSV, no temporary file, and no output directory the run made
    assert list(out_root.iterdir()) == []


def test_a_render_failing_in_a_child_is_an_os_error(out_root, forks, monkeypatch, capsys):
    parent, render = os.getpid(), cli._CsvRenderer.render

    def fail_in_a_child(self, rows, final=False):
        if os.getpid() != parent:
            raise RuntimeError("render failed")
        render(self, rows, final)

    monkeypatch.setattr(cli._CsvRenderer, "render", fail_in_a_child)
    path = out_root / "sim.csv"
    # 2,001 rows: the renderer forks at row 809
    argv = ["simulate", "--game", "paper-congestion", "--horizon", "20", "--out", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert not out
    assert err.startswith(f"error: {path}: rendering failed in its child process")
    assert len(forks) == 1
    _assert_no_child_process()
    assert list(out_root.iterdir()) == []


def test_simulate_short_run_reports_no_convergence(out_root, capsys):
    code, out, _ = run_cli(["simulate", "--game", "paper-rps", "--horizon", "1"], capsys)
    assert code == 2
    summary = json.loads(out)
    assert summary["game"] == "paper-rps"
    assert not summary["converged"]
    assert summary["steps"] == 100
    assert summary["report"]["verdict"] == "not_in_E"


def test_simulate_converged_run_writes_csv(out_root, capsys):
    out_path = out_root / "traj.csv"
    code, out, _ = run_cli(
        ["simulate", "--game", "paper-congestion", "--seed", "0", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["converged"]
    assert summary["report"]["verdict"] == "in_E"
    header, rows = read_csv_rows(out_path)
    assert header[:5] == ["t", "x_1", "x_2", "x_3", "x_4"]
    assert "mu_0" in header and "mu_8" in header
    assert header[-4:] == ["p", "g_max", "xdot_norm", "mudot_norm"]
    assert len(rows) == summary["steps"] + 1
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == summary["final_time"]


def test_simulate_thins_rows_but_keeps_the_endpoint(out_root, capsys):
    out_path = out_root / "thin.csv"
    code, _, _ = run_cli(
        [
            "simulate",
            "--game",
            "paper-rps",
            "--horizon",
            "0.05",
            "--record-every",
            "2",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 2
    _, rows = read_csv_rows(out_path)
    # steps 0..5 thinned to 0, 2, 4 plus the final step 5
    assert [float(r[0]) for r in rows] == [0.0, 0.02, 0.04, 0.05]


def test_simulate_explicit_start_vectors(out_root, capsys):
    code, out, _ = run_cli(
        [
            "simulate",
            "--game",
            "paper-rps",
            "--x0",
            "0.333333,0.333333,0.333334",
            "--mu0",
            "4,0",
            "--horizon",
            "1",
        ],
        capsys,
    )
    assert code == 2
    summary = json.loads(out)
    assert summary["seed"] is None


def test_simulate_paper_rps_starts_at_the_barycenter(out_root, capsys):
    out_path = out_root / "rps.csv"
    code, out, _ = run_cli(
        [
            "simulate",
            "--game",
            "paper-rps",
            "--horizon",
            "0.05",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 2
    assert json.loads(out)["seed"] is None
    _, rows = read_csv_rows(out_path)
    assert [float(v) for v in rows[0][1:4]] == [1.0 / 3.0] * 3


def test_default_start_comes_from_the_game_not_its_name():
    x0, seed = cli._default_primal(pd.paper_rps(), 3)
    assert seed is None
    assert np.array_equal(x0.x, np.full(3, 1.0 / 3.0))
    x0, seed = cli._default_primal(pd.build_rps(name="paper-rps"), 3)
    assert seed == 3
    assert np.array_equal(x0.x, pd.sample_simplex(3, 1.0, 3).x)


def test_simulate_seed_fanout(out_root, capsys):
    out_path = out_root / "fan.csv"
    code, out, _ = run_cli(
        [
            "simulate",
            "--game",
            "paper-congestion",
            "--seeds",
            "0..2",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    summaries = json.loads(out)
    assert [s["seed"] for s in summaries] == [0, 1, 2]
    assert all(s["converged"] for s in summaries)
    # each fanned-out seed reproduces its single-seed run exactly
    for seed, summary in zip((0, 1, 2), summaries):
        single_path = out_root / f"single-{seed}.csv"
        code, out, _ = run_cli(
            [
                "simulate",
                "--game",
                "paper-congestion",
                "--seed",
                str(seed),
                "--out",
                str(single_path),
            ],
            capsys,
        )
        assert code == 0
        fan_path = out_root / f"fan-seed{seed}.csv"
        assert fan_path.read_bytes() == single_path.read_bytes()
        single = json.loads(out)
        assert summary["out"] == str(fan_path)
        assert single["out"] == str(single_path)
        assert {**summary, "out": None} == {**single, "out": None}


@pytest.fixture
def no_integration(monkeypatch):
    # fails any command that gets as far as integrating
    calls = []

    def integrate(*args, **kwargs):
        calls.append(args)
        raise AssertionError("integrate was called")

    monkeypatch.setattr(pd.dynamics, "integrate", integrate)
    return calls


@pytest.mark.parametrize(
    "extra, reason",
    [
        (["--game", "paper-rps"], "game 'paper-rps' fixes the start"),
        (["--game", "paper-congestion", "--x0", "0.25,0.25,0.25,0.25"], "--x0 fixes the start"),
    ],
)
def test_simulate_seeds_with_a_fixed_start_is_a_usage_error(
    extra, reason, out_root, no_integration, capsys
):
    # every seed would run the same integration and write the same file
    out_path = out_root / "fan.csv"
    code, out, err = run_cli(["simulate", *extra, "--seeds", "0..2", "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --seeds would be ignored")
    assert reason in err
    assert no_integration == []
    assert list(out_root.iterdir()) == []


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["simulate", "--game", "paper-rps"], "game 'paper-rps' fixes the start"),
        (
            ["simulate", "--game", "paper-congestion", "--x0", "0.25,0.25,0.25,0.25"],
            "--x0 fixes the start",
        ),
        (["repro", "rps"], "game 'paper-rps' fixes the start"),
    ],
)
def test_an_explicit_seed_with_a_fixed_start_is_a_usage_error(
    argv, reason, out_root, no_integration, capsys
):
    # the run would not depend on the seed, yet report it as if it did not exist
    flag = "--out-dir" if argv[0] == "repro" else "--out"
    code, out, err = run_cli([*argv, "--seed", "5", flag, str(out_root / "never")], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --seed would be ignored")
    assert reason in err
    assert no_integration == []
    assert list(out_root.iterdir()) == []


def test_seed_and_seeds_together_are_a_usage_error(out_root, no_integration, capsys):
    argv = ["simulate", "--game", "paper-congestion", "--seed", "1", "--seeds", "0..2"]
    code, out, err = run_cli([*argv, "--out", str(out_root / "never.csv")], capsys)
    assert code == 1
    assert out == ""
    assert "--seeds" in err and "--seed" in err
    assert no_integration == []
    assert list(out_root.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "repro"])
def test_without_a_seed_the_random_start_draws_seed_0(command, out_root, capsys):
    def run(extra, name):
        if command == "simulate":
            argv = ["simulate", "--game", "paper-congestion", "--out", str(out_root / f"{name}.csv")]
        else:
            argv = ["repro", "congestion", "--out-dir", str(out_root / name)]
        code, out, _ = run_cli([*argv, "--horizon", "0.5", *extra], capsys)
        return code, out.replace(name, "NAME")

    default, seeded = run([], "default"), run(["--seed", "0"], "seeded")
    assert default == seeded
    if command == "simulate":
        assert json.loads(default[1])["seed"] == 0
        assert (out_root / "default.csv").read_bytes() == (out_root / "seeded.csv").read_bytes()
    else:
        for name in ("trajectory.csv", "audit.json", "report.json"):
            assert (out_root / "default" / name).read_bytes() == (out_root / "seeded" / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--game", "paper-congestion"],
        ["repro", "congestion"],
        ["repro", "rps"],
    ],
)
def test_record_every_is_checked_before_integrating(argv, out_root, no_integration, capsys):
    code, out, err = run_cli([*argv, "--record-every", "0"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "--record-every" in err
    assert no_integration == []
    # repro leaves no empty output directory behind
    assert list(out_root.iterdir()) == []


def test_simulate_is_deterministic(out_root, capsys):
    args = [
        "simulate",
        "--game",
        "paper-congestion",
        "--horizon",
        "5",
        "--seed",
        "3",
    ]
    code1, out1, _ = run_cli(args + ["--out", str(out_root / "a.csv")], capsys)
    code2, out2, _ = run_cli(args + ["--out", str(out_root / "b.csv")], capsys)
    assert code1 == code2
    assert out1.replace("a.csv", "b.csv") == out2
    assert (out_root / "a.csv").read_bytes() == (out_root / "b.csv").read_bytes()


def test_simulate_accepts_game_files(out_root, capsys):
    spec = {
        "n": 2,
        "primal_mass": 1.0,
        "dual_mass": 1.0,
        "fitness": {"type": "quadratic_potential", "H": [[-2.0, 0.0], [0.0, -2.0]], "c": [0.0, 0.0]},
        "constraints": [],
    }
    path = out_root / "bowl.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(["simulate", "--game", str(path), "--horizon", "50"], capsys)
    assert code == 0
    assert json.loads(out)["converged"]


def capped_bowl(path, dual_mass):
    # p = -|x|^2 / 2 + 2 x_1 under x_1 <= 0.3 needs the price 1.7 on the cap
    spec = {
        "n": 2,
        "primal_mass": 1.0,
        "dual_mass": dual_mass,
        "fitness": {"type": "quadratic_potential", "H": [[-1.0, 0.0], [0.0, -1.0]], "c": [2.0, 0.0]},
        "constraints": [{"type": "affine", "a": [1.0, 0.0], "b": 0.3}],
    }
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize(
    "dual_mass, flags, expected",
    [
        (0.5, [], 3),
        (0.5, ["--seeds", "0..1"], 3),
        (0.5, ["--report-tol", "1"], 0),
        # an unconverged seed still decides the exit code
        (0.5, ["--seeds", "0..1", "--horizon", "1"], 2),
        (10.0, [], 0),
    ],
    ids=["too-small", "too-small-seeds", "loose-tolerance", "unconverged", "large-enough"],
)
def test_a_converged_infeasible_endpoint_exits_3(out_root, capsys, dual_mass, flags, expected):
    game = capped_bowl(out_root / "capped.json", dual_mass)
    code, out, err = run_cli(["simulate", "--game", game, *flags], capsys)
    assert code == expected
    summaries = json.loads(out)
    summaries = summaries if isinstance(summaries, list) else [summaries]
    for summary in summaries:
        infeasible = summary["converged"] and summary["report"]["feasibility_residual"] > 1e-3
        assert infeasible == (dual_mass == 0.5 and expected != 2)
        if infeasible:
            assert summary["report"]["verdict"] == "in_E"
    if expected == 3:
        lines = err.splitlines()
        assert len(lines) == len(summaries)
        assert all("g_max = 0.699999" in line and "--report-tol 0.001" in line for line in lines)
        assert all("dual mass 0.5" in line for line in lines)
    else:
        assert "infeasible" not in err


def test_simulate_rejects_invalid_game_files(out_root, capsys):
    path = out_root / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["simulate", "--game", str(path), "--horizon", "1"], capsys)
    assert code == 1
    assert err


@pytest.mark.parametrize(
    "field, changes",
    [
        ('"n"', {"n": 3}),
        # a fractional count is refused, not truncated to the matrix's 3
        ('"n"', {"n": 3.7, "fitness": {"type": "linear", "matrix": np.eye(3).tolist()}}),
        (
            "affine constraint a",
            {"constraints": [{"type": "affine", "a": [1.0, 0.0, math.nan], "b": 0.5}]},
        ),
        ("payoff matrix", {"fitness": {"type": "linear", "matrix": [[0.0, 1.0], [math.inf, 0.0]]}}),
        (
            "affine constraint b",
            {"constraints": [{"type": "affine", "a": [1.0, 0.0], "b": [0.5, 1]}]},
        ),
    ],
    ids=["n-mismatch", "n-fractional", "nan-coefficient", "infinite-matrix-entry", "list-bound"],
)
def test_simulate_rejects_inconsistent_game_files(out_root, capsys, field, changes):
    spec = {
        "n": 2,
        "primal_mass": 1.0,
        "dual_mass": 1.0,
        "fitness": {"type": "linear", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
        "constraints": [],
    }
    spec.update(changes)
    path = out_root / "bad.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(["simulate", "--game", str(path), "--horizon", "1"], capsys)
    assert code == 1
    assert err.startswith("error:") and field in err
    assert "diverged" not in err


# --- verify ---


def test_verify_accepts_converged_state(out_root, congestion_run, capsys):
    state = {
        "x": congestion_run.primal[-1].tolist(),
        "mu": congestion_run.dual[-1].tolist(),
    }
    path = out_root / "state.json"
    path.write_text(json.dumps(state))
    code, out, _ = run_cli(
        ["verify", "--game", "paper-congestion", "--state", str(path)], capsys
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "in_E"


def test_verify_rejects_non_equilibrium_state(out_root, capsys):
    state = {"x": [0.25, 0.25, 0.25, 0.25], "mu": [122.0] + [0.0] * 8}
    path = out_root / "state.json"
    path.write_text(json.dumps(state))
    code, out, _ = run_cli(
        ["verify", "--game", "paper-congestion", "--state", str(path)], capsys
    )
    assert code == 3
    assert json.loads(out)["verdict"] == "not_in_E"


def test_verify_missing_state_file(out_root, capsys):
    code, _, err = run_cli(
        ["verify", "--game", "paper-congestion", "--state", str(out_root / "ghost.json")],
        capsys,
    )
    assert code == 1
    assert err


@pytest.mark.parametrize("value", [["a", "b", "c", "d"], {"a": 1.0}])
def test_verify_rejects_non_numeric_state(out_root, capsys, value):
    path = out_root / "state.json"
    path.write_text(json.dumps({"x": value, "mu": [122.0] + [0.0] * 8}))
    code, _, err = run_cli(
        ["verify", "--game", "paper-congestion", "--state", str(path)], capsys
    )
    assert code == 1
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--game", "paper-rps", "--state", "vertex.json", "--tol", "inf"],
        ["verify", "--game", "paper-rps", "--state", "vertex.json", "--tol", "nan"],
        ["simulate", "--game", "paper-rps", "--horizon", "1", "--report-tol", "inf"],
    ],
    ids=["verify-inf", "verify-nan", "simulate-inf"],
)
def test_a_tolerance_that_is_not_finite_is_a_usage_error(out_root, capsys, monkeypatch, argv):
    # with --tol inf the vertex e_1 (Nash gaps 2.0 and 3.6, g_max 0.9) read in_E
    (out_root / "vertex.json").write_text(json.dumps({"x": [1, 0, 0], "mu": [4, 0]}))
    monkeypatch.chdir(out_root)
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: tolerance must be positive and finite")


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_a_report_tolerance_is_refused_before_any_integration(out_root, capsys, monkeypatch, tol):
    def refuse(*args, **kwargs):
        raise AssertionError("integrate ran before --report-tol was checked")

    monkeypatch.setattr(pd.dynamics, "integrate", refuse)
    argv = ["simulate", "--game", "paper-rps", "--report-tol", tol, "--out", str(out_root / "never.csv")]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: tolerance must be positive and finite, got {float(tol)!r}\n"
    assert not (out_root / "never.csv").exists()


# --- bound ---


def test_bound_matches_hand_computation(capsys):
    code, out, _ = run_cli(
        [
            "bound",
            "--game",
            "paper-congestion",
            "--slater",
            "0.25,0.25,0.25,0.25",
            "--p-star-upper",
            "0",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == pytest.approx(121.875, abs=1e-9)
    assert payload["dual_mass"] == 122.0
    assert payload["sufficient"] is True
    assert payload["margin"] == pytest.approx(0.1, abs=1e-12)


def test_bound_defaults_to_the_oracle_upper_bound(capsys):
    code, out, _ = run_cli(
        ["bound", "--game", "paper-congestion", "--slater", "0.25,0.25,0.25,0.25"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    # the optimum is p(0.4, 4/53, 6.6/53, 0.4) = -8.909056603773585, and the
    # certified upper bound sits on it
    p_star = -8.909056603773585
    assert p_star <= payload["p_star_upper"] <= p_star + 1e-9
    # (p* - p(x_tilde)) / margin with p(x_tilde) = -12.1875 and margin 0.1
    assert payload["bound"] == pytest.approx(32.7844339622641, abs=1e-6)
    assert payload["optimum_dual_mass"] <= payload["bound"] <= 122.0
    assert payload["sufficient"] is True


def test_bound_solves_games_beyond_the_grid_oracle(out_root, capsys):
    # eight strategies: past the grid oracle's cap of six
    n = 8
    spec = {
        "n": n,
        "primal_mass": 1.0,
        "dual_mass": 10.0,
        "fitness": {
            "type": "quadratic_potential",
            "H": (-np.eye(n)).tolist(),
            "c": np.linspace(0.0, 1.0, n).tolist(),
        },
        "constraints": [{"type": "affine", "a": [0.0] * (n - 2) + [1.0, 1.0], "b": 0.5}],
    }
    path = out_root / "wide.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(
        ["bound", "--game", str(path), "--slater", ",".join(["0.125"] * n)], capsys
    )
    assert code == 0, err
    payload = json.loads(out)
    assert 0.0 < payload["optimum_dual_mass"] <= payload["bound"]
    assert payload["sufficient"] is True


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bound_rejects_non_finite_p_star_upper(capsys, value):
    code, out, err = run_cli(
        [
            "bound",
            "--game",
            "paper-congestion",
            "--slater",
            "0.25,0.25,0.25,0.25",
            "--p-star-upper",
            value,
        ],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "p_star_upper must be finite" in err


@pytest.mark.parametrize("extra", [[], ["--p-star-upper", "0"]], ids=["solved", "given"])
def test_bound_needs_a_potential(capsys, extra):
    # the solver now certifies rps, but the Slater bound reads p(x_tilde)
    argv = ["bound", "--game", "paper-rps", "--slater", "0.2,0.1,0.7", *extra]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "potential" in err


def test_bound_rejects_infeasible_interior_point(capsys):
    code, _, err = run_cli(
        ["bound", "--game", "paper-rps", "--slater", "0.8,0.1,0.1", "--p-star-upper", "0"],
        capsys,
    )
    assert code == 1
    assert err


# --- repro ---


def test_repro_congestion_passes_and_writes_artifacts(out_root, capsys):
    out_dir = out_root / "repro-c"
    code, out, _ = run_cli(
        ["repro", "congestion", "--seed", "0", "--out-dir", str(out_dir)], capsys
    )
    assert code == 0
    assert "all criteria passed" in out
    assert "FAIL" not in out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["verdict"] == "in_E"
    audit = json.loads((out_dir / "audit.json").read_text())
    assert audit["violation_steps"] == []
    assert audit["nonnegativity_ok"] is True
    assert audit["fraction_nonincreasing"] == 1.0
    header, rows = read_csv_rows(out_dir / "trajectory.csv")
    assert header[0] == "t"
    assert len(rows) == audit["samples"]


def test_repro_rps_passes(out_root, capsys):
    out_dir = out_root / "repro-r"
    code, out, _ = run_cli(["repro", "rps", "--out-dir", str(out_dir)], capsys)
    assert code == 0
    assert "all criteria passed" in out
    # the endpoint and its price are held to the certified equilibrium
    lines = out.splitlines()
    assert any(line.startswith("PASS optimum_match") for line in lines)
    assert any(line.startswith("PASS price_match") for line in lines)
    assert (out_dir / "trajectory.csv").exists()


def test_repro_truncated_run_fails_with_exit_3(out_root, capsys):
    out_dir = out_root / "repro-short"
    code, out, _ = run_cli(
        ["repro", "congestion", "--horizon", "1", "--out-dir", str(out_dir)], capsys
    )
    assert code == 3
    assert "failed criteria:" in out
    assert "converged" in out
    # artifacts are still written for inspection
    assert (out_dir / "report.json").exists()


def test_repro_default_output_directory(out_root, capsys):
    code, _, _ = run_cli(["repro", "rps", "--horizon", "1"], capsys)
    assert code == 3
    assert (out_root / "repro-rps" / "trajectory.csv").exists()


@pytest.mark.parametrize("flag", ["--step", "--horizon"])
def test_repro_rejects_bad_step_before_creating_the_output_directory(out_root, capsys, flag):
    out_dir = out_root / "never"
    code, _, err = run_cli(["repro", "rps", flag, "0", "--out-dir", str(out_dir)], capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--game", "paper-congestion", "--seed", "-1", "--horizon", "1"],
        ["simulate", "--game", "paper-congestion", "--seeds=-2..1", "--horizon", "1"],
        ["repro", "congestion", "--seed", "-2", "--horizon", "1"],
        # the fixed start draws nothing from the seed; a negative one is still refused
        ["simulate", "--game", "paper-rps", "--seed", "-3", "--horizon", "1"],
        ["repro", "rps", "--seed", "-2", "--horizon", "1"],
    ],
)
def test_a_negative_seed_is_a_usage_error_that_writes_nothing(argv, out_root, capsys):
    out_dir = out_root / "never"
    flag = "--out-dir" if argv[0] == "repro" else "--out"
    code, out, err = run_cli([*argv, flag, str(out_dir)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "seed" in err
    assert list(out_root.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--game", "paper-congestion", "--step", "0.05", "--out"],
        ["repro", "congestion", "--step", "0.05", "--out-dir"],
    ],
)
def test_a_step_too_long_for_the_simplex_is_a_usage_error_that_writes_nothing(
    argv, out_root, capsys
):
    out = out_root / "never"
    code, stdout, err = run_cli([*argv, str(out)], capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: step 0.05 is too long")
    assert "positivity limit" in err
    assert list(out_root.iterdir()) == []


# from seed 279's start a 0.01 Euler step takes path 2's share negative (limit 0.00953)
BEYOND_LIMIT_SEED = "279"


def test_the_default_step_is_halved_for_a_start_beyond_its_positivity_limit(out_root, capsys):
    path = out_root / "c.csv"
    argv = ["simulate", "--game", "paper-congestion", "--seed", BEYOND_LIMIT_SEED]
    code, _, err = run_cli([*argv, "--horizon", "0.02", "--out", str(path)], capsys)
    assert code == 2
    assert err.startswith("note: step 0.005, as the default 0.01 is beyond the positivity limit")
    _, rows = read_csv_rows(path)
    assert [float(row[0]) for row in rows] == pytest.approx([0.0, 0.005, 0.01, 0.015, 0.02])
    # a step given on the command line is kept, and refused
    code, _, err = run_cli([*argv, "--step", "0.01", "--out", str(out_root / "never")], capsys)
    assert code == 1
    assert err.startswith("error: step 0.01 is too long: the update from step 0 (t = 0)")
    assert not (out_root / "never").exists()


def test_repro_congestion_passes_from_a_start_beyond_the_default_positivity_limit(
    out_root, capsys
):
    out_dir = out_root / "repro-c"
    code, out, err = run_cli(
        ["repro", "congestion", "--seed", BEYOND_LIMIT_SEED, "--out-dir", str(out_dir)], capsys
    )
    assert code == 0
    assert "all criteria passed" in out
    assert err.startswith("note: step 0.005,")
    _, rows = read_csv_rows(out_dir / "trajectory.csv")
    assert float(rows[1][0]) == 0.005


def test_out_rates_that_overflow_at_the_start_are_refused_at_once(tmp_path):
    # the positivity limit reads 0 there, so no halving of the default step
    # ends; a child process with a timeout turns a hang into a failure
    game = {
        "n": 3,
        "primal_mass": 3.0,
        "dual_mass": 1.0,
        "fitness": {"type": "linear", "matrix": [[8e307, 0, 0], [0, 8e307, 0], [0, 0, -8e307]]},
    }
    (tmp_path / "g.json").write_text(json.dumps(game))
    env = os.environ.copy()
    package_root = str(Path(pd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    argv = ["simulate", "--game", "g.json", "--x0", "1,1,1", "--horizon", "1", "--out", "o.csv"]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "popdyn", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: the out-rates at the start x0 = [1.0, 1.0, 1.0]")
    assert "overflow" in proc.stderr
    assert not (tmp_path / "o.csv").exists()


# --- module entry point ---


def test_module_invocation_round_trip(tmp_path):
    # Run the child on the popdyn this process imported, whether from a
    # checkout or an install; a relative PYTHONPATH would not resolve from
    # tmp_path.
    env = os.environ.copy()
    package_root = str(Path(pd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "popdyn",
            "bound",
            "--game",
            "paper-congestion",
            "--slater",
            "0.25,0.25,0.25,0.25",
            "--p-star-upper",
            "0",
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["sufficient"] is True
