"""The gate table of ``scripts/bench_compare.py``: selection, verdicts and
baseline order, with every measurement stubbed out."""

import importlib.util
import json
import os
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """The script as a module, archiving into an empty temp directory."""
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
    return module


def stub_gates(bench, monkeypatch, values=None):
    """Replace every row's ``measure`` with a stub; return the call log.

    A stub reports each checked metric at ``values[name]`` when given,
    else exactly at its bound (which passes either direction).
    """
    calls = []

    def stub(gate):
        def measure(args):
            calls.append(gate.name)
            return {metric: (values or {}).get(gate.name, bound)
                    for metric, _op, bound in gate.checks}
        return measure

    monkeypatch.setattr(bench, "GATES", tuple(
        gate._replace(measure=stub(gate)) for gate in bench.GATES))
    return calls


def test_row_names_unique_and_match_choices(bench, capsys):
    names = [gate.name for gate in bench.GATES]
    assert len(names) == len(set(names))
    with pytest.raises(SystemExit):
        bench.main(["--help"])
    usage = capsys.readouterr().out
    assert f"--only {{{','.join(names)}}}" in usage
    assert f"--skip {{{','.join(names)}}}" in usage


@pytest.mark.parametrize("flag", ["--only", "--skip"])
def test_unknown_name_rejected(bench, monkeypatch, flag):
    calls = stub_gates(bench, monkeypatch)
    with pytest.raises(SystemExit) as exc:
        bench.main([flag, "no-such-gate", "--rev", "t"])
    assert exc.value.code == 2
    assert calls == []


def test_default_runs_every_row(bench, monkeypatch):
    calls = stub_gates(bench, monkeypatch)
    assert bench.main(["--rev", "t"]) == 0
    assert calls == [gate.name for gate in bench.GATES]


def test_only_and_skip_select_rows(bench, monkeypatch):
    names = [gate.name for gate in bench.GATES]
    calls = stub_gates(bench, monkeypatch)
    for name in names:
        calls.clear()
        assert bench.main(["--only", name, "--rev", "t"]) == 0
        assert calls == [name]
        calls.clear()
        assert bench.main(["--skip", name, "--rev", "t"]) == 0
        assert calls == [n for n in names if n != name]
    calls.clear()
    assert bench.main(["--only", "fabric", "--only", "lint",
                       "--rev", "t"]) == 0
    assert calls == ["fabric", "lint"]


def test_missed_check_fails_with_named_line(bench, monkeypatch, capsys):
    stub_gates(bench, monkeypatch, {"stream-overhead": 0.5})
    assert bench.main(["--only", "stream-overhead", "--rev", "t"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL") == 1
    assert ("FAIL stream-overhead: idle_bus_overhead = 0.5, needs <= 0.03"
            in out)


@pytest.mark.parametrize("value, ok", [(9.5, False), (10.0, True),
                                       (10.5, True)])
def test_at_least_check_fails_below_bound(bench, value, ok):
    gate = bench.Gate("g", None, (("speedup", ">=", 10.0),))
    failures = bench.failed_checks(gate, {"speedup": value})
    assert failures == ([] if ok else
                        [f"FAIL g: speedup = {value}, needs >= 10.0"])


@pytest.mark.parametrize("value, ok", [(0.01, True), (0.03, True),
                                       (0.04, False)])
def test_at_most_check_fails_above_bound(bench, value, ok):
    gate = bench.Gate("g", None, (("overhead", "<=", 0.03),))
    failures = bench.failed_checks(gate, {"overhead": value})
    assert failures == ([] if ok else
                        [f"FAIL g: overhead = {value}, needs <= 0.03"])


def test_metrics_merge_into_existing_archive(bench, monkeypatch, tmp_path):
    stub_gates(bench, monkeypatch)
    archive = tmp_path / "BENCH_t.json"
    archive.write_text(json.dumps({"benchmarks": []}))
    assert bench.main(["--only", "fabric", "--only", "lint",
                       "--rev", "t"]) == 0
    data = json.loads(archive.read_text())
    assert data["repro_metrics"]["fabric"]["validation_rel_err"] == 0.05
    assert data["lint_clean"] is True


def test_previous_report_ranks_by_recorded_datetime(bench, tmp_path):
    older = tmp_path / "BENCH_older.json"
    newer = tmp_path / "BENCH_newer.json"
    older.write_text(json.dumps({"datetime": "2026-08-08T11:41:07+00:00"}))
    newer.write_text(json.dumps({"datetime": "2026-08-08T13:05:28+00:00"}))
    # a checkout can leave the older record with the later mtime
    os.utime(newer, (1_000_000, 1_000_000))
    os.utime(older, (2_000_000, 2_000_000))
    current = tmp_path / "BENCH_current.json"
    assert bench.previous_report(current) == newer
