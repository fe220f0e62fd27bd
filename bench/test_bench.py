"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest bench -q``.  Seed 6
is used where a quick unit is enough: its congestion start converges in
about 1,100 steps.
"""

import json
import subprocess

import pytest

import run


def benchmark_spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key, tmp_path, capsys):
    assert run.main(
        ["--workload", "congestion-repro", "--seed", "6", "--seconds", "0", "--trace", str(trace)],
        out_root=tmp_path,
    ) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in benchmark_spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in benchmark_spec()["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_unconverged_unit_lands_in_failed_share(workload, tmp_path, monkeypatch):
    # a horizon far too short to converge; no workload runs with it
    short = run.WORKLOADS[workload]
    monkeypatch.setitem(run.WORKLOADS, workload, lambda: short(horizon=1.0))
    result = run.run(workload, 6, 0.0, False, out_root=tmp_path)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert result["failed_share"] == 1.0
    assert result["metrics"]["wall_s"]["value"] > 0.0


def test_popdyn_runs_in_process_despite_relative_pythonpath(tmp_path, monkeypatch):
    # a relative PYTHONPATH breaks `python -m popdyn` outside the repository root
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", "src")
    started = []
    popen = subprocess.Popen

    def recording_popen(argv, **kwargs):
        started.append(list(argv))
        return popen(argv, **kwargs)

    monkeypatch.setattr(run.subprocess, "Popen", recording_popen)
    result = run.run("congestion-repro", 6, 0.0, False, out_root=tmp_path)
    assert result["failed"] == 0
    # only the set-up timing starts interpreters, each given the absolute src path
    assert len(started) == run.SETUP_REPEATS + 1
    for argv in started:
        assert str(run.SRC) in argv and run.SRC.is_absolute()
        assert "popdyn" not in argv[:3] and "-m" not in argv
    assert run.load_popdyn().__file__.startswith(str(run.SRC))
