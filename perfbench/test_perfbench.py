"""Self-check of the benchmark harness on tiny inputs.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
    BENCH = json.load(fh)

# the code path of each real workload, on inputs that take well under a second
TINY = {
    "key": ({"cli": ["verify", "--suite", "key", "--wmax", "3"], "cache": "cold"}, "5..60"),
    "ppt": ({"cli": ["verify", "--suite", "ppt", "--rmax", "2"], "cache": "warm"}, "5..60"),
    "depth2": ({"cli": ["verify", "--suite", "depth2", "--kmax", "5"], "cache": None}, "100..140"),
    "dims": ({"weight": 4}, "7..100"),
}


@pytest.fixture(autouse=True)
def scratch_work(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    expected = run.load_windows()
    assert all(len(expected[name]) >= 2 for name in run.WORKLOADS)


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(kind, trace):
    wl, primes = TINY[kind]
    reports, failures, setups = run.measure("tiny-" + kind, wl, {"primes": primes}, 0, trace)
    assert failures == []
    metrics, _ = run.summarize(reports, setups, trace)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert set(metrics) == set(units)
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    if not trace:
        assert all(metrics[m] > 0 for m in run.END_TO_END)
        return
    if kind == "key":
        assert metrics["evaluator.cache_appends"] == metrics["evaluator.cells_computed"] > 0
    elif kind == "ppt":
        assert metrics["evaluator.cells_computed"] == 0
        assert metrics["evaluator.cache_hits"] > 0
        assert metrics["identities.ppt_constants_calls"] > 0
    elif kind == "depth2":
        assert metrics["bernoulli.zk_calls"] > 0
    else:
        assert metrics["lattice.lll_rank"] == 8
        assert metrics["relations.verified"] > 0


def test_wrong_output_is_a_failure():
    wl, primes = TINY["key"]
    window = {"primes": primes, "sha256": "0" * 64, "cases": 1}
    reports, failures, _ = run.measure("tiny-key", wl, window, 0, False)
    assert len(failures) == len(reports) == run.MIN_OPS
    assert "stdout differs" in failures[0] and "recorded 1" in failures[0]


def test_changed_warm_cache_is_refused(tmp_path):
    wl, primes = TINY["ppt"]
    run.measure("tiny-ppt", wl, {"primes": primes}, 0, False)
    (fixture,) = tmp_path.glob("*.cache")
    with open(fixture, "a", encoding="ascii") as fh:
        fh.write("zeta2,1,,5,4\n")
    with pytest.raises(RuntimeError, match="changed after it was built"):
        run.measure("tiny-ppt", wl, {"primes": primes}, 0, False)


def test_result_line(monkeypatch, capsys):
    wl, primes = TINY["depth2"]
    monkeypatch.setattr(run, "WORKLOADS", {"tiny": wl})
    monkeypatch.setattr(run, "load_windows", lambda: {"tiny": [{"primes": primes}]})
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {m: v["unit"] for m, v in out["metrics"].items()} == run.END_TO_END


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dims-w8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
