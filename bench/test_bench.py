"""The benchmark's own tests: every workload runs a few ops, traced runs
report every declared per-layer metric and repeat their exact counters, and
each correctness gate and check can fire.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
EXACT = [m["name"] for m in CONTRACT["per_layer"]
         if m["unit"] in ("count", "bytes")]


def bench(capsys, workload, *extra):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0.2", *extra])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, capsys):
    code, result = bench(capsys, workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4  # at least one op and three gates
    assert set(result["metrics"]) == {m["name"]
                                      for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sweep_wide", "betti_ideals",
                                      "cli_small"])
def test_traced_counters_repeat_exactly(workload, capsys):
    first, second = (bench(capsys, workload, "--trace", "1")
                     for _ in range(2))
    for code, result in (first, second):
        assert code == 0 and result["correct"]
        assert set(result["metrics"]) == {m["name"]
                                          for m in CONTRACT["per_layer"]}
    assert ([first[1]["metrics"][n]["value"] for n in EXACT]
            == [second[1]["metrics"][n]["value"] for n in EXACT])


@pytest.mark.parametrize("key", ["sweep_sha256", "workload_sha256"])
def test_wrong_pin_fails_the_run(key, tmp_path, capsys, monkeypatch):
    pins = json.loads(run.PINS.read_text())
    if key == "sweep_sha256":
        pins[key] = "0" * 64
    else:
        pins[key]["betti_ideals"] = "0" * 64
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS", path)
    code, result = bench(capsys, "betti_ideals")
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def test_checks_fire_on_wrong_outputs():
    import workloads
    from monoalg import MonomialIdeal, betti_ideal
    from monoalg.homology import BettiTable

    ideal = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (2, 0, 1)])
    table = betti_ideal(ideal, 0)
    workloads.betti_check((ideal, 0), table)
    wrong = dict(table.entries)
    wrong[(1, 4)] = wrong.get((1, 4), 0) + 1
    with pytest.raises(workloads.CheckFailed):
        workloads.betti_check((ideal, 0), BettiTable(wrong))

    report = workloads.analyze_request(workloads.SEC3, workloads.NULL)
    assert report.text.encode() == workloads.golden()
    report.verified = False
    with pytest.raises(workloads.CheckFailed):
        workloads.check_report(workloads.SEC3, report)


def test_tail_steps_down_to_keep_ten_samples_beyond():
    assert run.tail(list(range(1, 101)), 90) == (90, 90, 10)
    assert run.tail(list(range(1, 51)), 90) == (75, 38, 12)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "betti_ideals",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
