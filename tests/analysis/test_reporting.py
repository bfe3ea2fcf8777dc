"""Tests for table/figure rendering and the experiment registry."""

import pytest

from repro.analysis.experiments import experiment_ids, run_experiment
from repro.analysis.figures import Figure, Series
from repro.analysis.tables import format_kv, format_table
from repro.errors import MeasurementError


class TestTables:
    def test_basic_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.001}]
        out = format_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_empty_table(self):
        assert "(empty)" in format_table([])

    def test_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        out = format_table(rows, columns=["b"])
        assert "a" not in out.splitlines()[0]

    def test_kv(self):
        out = format_kv({"alpha": 1.0, "beta": "x"}, title="K")
        assert out.startswith("K\n")
        assert "alpha" in out and "beta" in out

    def test_float_formatting(self):
        out = format_kv({"big": 123456.0, "small": 0.0001, "zero": 0.0})
        assert "1.23e+05" in out
        assert "0.0001" in out


class TestFigures:
    def test_series_validation(self):
        with pytest.raises(MeasurementError):
            Series("x", [1, 2], [1])
        with pytest.raises(MeasurementError):
            Series("x", [], [])

    def test_figure_render(self):
        fig = Figure(title="F", xlabel="payload", ylabel="Gb/s")
        fig.add(Series("a", [0, 100, 200], [1.0, 2.0, 3.0]))
        fig.add(Series("b", [0, 100, 200], [0.5, 1.0, 1.5]))
        out = fig.render(width=40, height=8)
        assert out.startswith("F")
        assert "* = a" in out and "o = b" in out
        assert "payload" in out

    def test_empty_figure_raises(self):
        with pytest.raises(MeasurementError):
            Figure("F", "x", "y").render()


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = experiment_ids()
        for required in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                         "tab1", "opt_steps", "multiflow", "pktgen",
                         "stream", "anecdotal", "comparison", "wan",
                         "validation", "stackprofile"):
            assert required in ids

    def test_unknown_experiment(self):
        with pytest.raises(MeasurementError):
            run_experiment("fig99")

    def test_fast_experiments_run(self):
        for name in ("fig8", "tab1", "stream"):
            out = run_experiment(name, quick=True)
            assert out.experiment == name
            assert len(out.text) > 50
            assert out.data
