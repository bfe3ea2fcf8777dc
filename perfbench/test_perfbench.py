"""Smoke tests for the benchmark itself (not part of tier-1).

Run from the repository root::

    python3 -m pytest perfbench -q

Every workload runs at a tiny size, traced and untraced; the tests
check that each metric named in BENCHMARK.json is emitted with its
unit, that ``--seed`` changes the inputs and nothing else, and that the
runner refuses to measure a non-default or incomplete setup.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def _run(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=str(cwd), env=env, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _smoke(workload, trace, seed=1):
    return _run("--workload", workload, "--seed", str(seed),
                "--seconds", "0", "--trace", str(trace), "--smoke")


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace, section):
    result = _result(_smoke(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_trace_keeps_the_simulated_output():
    proc = _smoke("lan_sweep", 1)
    digests = {}
    for line in proc.stdout.splitlines():
        if line.startswith("perfbench: digest "):
            kind, sha = line.split()[2:4]
            digests[kind] = sha
    assert set(digests) == {"untraced", "traced"}
    assert digests["untraced"] == digests["traced"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_the_inputs_and_nothing_else(workload):
    one, other = workloads.make(workload, 1), workloads.make(workload, 2)
    assert workloads.make(workload, 1).inputs() == one.inputs()
    ops = [one.operations(), other.operations()]
    assert len(ops[0]) == len(ops[1])
    if workload == "wan_des":
        # the WAN path has no free input for a seed to vary
        assert one.inputs() == other.inputs()
        return
    assert one.inputs() != other.inputs()
    # a permutation: the same work, in another order
    for key, value in one.inputs().items():
        mine = value if isinstance(value, list) else [value]
        theirs = other.inputs()[key]
        theirs = theirs if isinstance(theirs, list) else [theirs]
        assert Counter(map(repr, mine)) == Counter(map(repr, theirs))


def test_seed_changes_no_result_but_the_order():
    base = _result(_smoke("latency_pingpong", 0, seed=1))
    other = _result(_smoke("latency_pingpong", 0, seed=2))
    assert base["metrics"]["paper_rel_err"] == \
        other["metrics"]["paper_rel_err"]
    assert base["attempted"] == other["attempted"]


def test_refuses_a_result_affecting_knob_off_default():
    env = dict(os.environ, REPRO_HYBRID="0")
    proc = _run("--workload", "fabric_incast", "--seconds", "0",
                "--trace", "0", "--smoke", env=env)
    assert proc.returncode != 0
    assert "REPRO_HYBRID=0" in proc.stderr
    assert proc.stdout.strip() == ""


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "lan_sweep", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
