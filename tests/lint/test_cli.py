"""CLI behaviour: exit codes, formats, baseline workflow, rule listing."""

import json

import pytest

from repro.lint.cli import main
from tests.lint.support import write_module

BAD_SIM = "import time\nstamp = time.time()\n"


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    # The CLI resolves the default baseline path against the cwd; run
    # from an empty directory so the repository's baseline stays out.
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_clean_tree_exits_zero(in_tmp, capsys):
    write_module(in_tmp, "sim/fine.py", "x = 1\n")
    assert main([str(in_tmp / "repro")]) == 0
    assert "reprolint: clean" in capsys.readouterr().out


def test_violation_exits_one(in_tmp, capsys):
    write_module(in_tmp, "sim/bad.py", BAD_SIM)
    assert main([str(in_tmp / "repro")]) == 1
    out = capsys.readouterr().out
    assert "reprolint: FAIL" in out
    assert "RPR002" in out and "sim/bad.py" in out


def test_json_format(in_tmp, capsys):
    write_module(in_tmp, "sim/bad.py", BAD_SIM)
    assert main([str(in_tmp / "repro"), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["files"] == 1
    assert [f["rule"] for f in report["findings"]] == ["RPR002"]


def test_select_restricts_rules(in_tmp):
    write_module(in_tmp, "sim/bad.py", BAD_SIM)
    assert main([str(in_tmp / "repro"), "--select", "RPR001"]) == 0
    assert main([str(in_tmp / "repro"), "--select", "RPR002"]) == 1


def test_unknown_rule_id_is_a_usage_error(in_tmp, capsys):
    write_module(in_tmp, "sim/fine.py", "x = 1\n")
    assert main([str(in_tmp / "repro"), "--select", "RPR999"]) == 2
    assert "RPR999" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(in_tmp, capsys):
    assert main([str(in_tmp / "nope")]) == 2
    assert "nope" in capsys.readouterr().err


def test_write_baseline_then_gate(in_tmp, capsys):
    write_module(in_tmp, "sim/legacy.py", BAD_SIM)
    target = str(in_tmp / "repro")
    # Accept the legacy finding...
    assert main([target, "--write-baseline"]) == 0
    assert (in_tmp / "reprolint-baseline.json").is_file()
    # ...the default gate now passes (baseline picked up from cwd)...
    capsys.readouterr()
    assert main([target]) == 0
    assert "1 baselined" in capsys.readouterr().out
    # ...but --no-baseline still shows the debt...
    assert main([target, "--no-baseline"]) == 1
    # ...and a *new* violation fails even with the baseline.
    write_module(in_tmp, "sim/fresh.py", BAD_SIM)
    assert main([target]) == 1


def test_corrupt_baseline_is_an_error_not_a_pass(in_tmp, capsys):
    write_module(in_tmp, "sim/fine.py", "x = 1\n")
    (in_tmp / "reprolint-baseline.json").write_text("{}")
    assert main([str(in_tmp / "repro")]) == 2
    assert "baseline" in capsys.readouterr().err


def test_list_rules(in_tmp, capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in [f"RPR{i:03d}" for i in range(1, 11)]:
        assert rule_id in out
