"""Smoke tests for the figure drivers (tiny sizes; shapes asserted in benches)."""

import numpy as np
import pytest

from repro.experiments import (
    render_grid,
    render_series,
    run_fig7,
    run_fig8,
    run_fig10a,
    run_fig11b,
    run_fig11f,
    run_fig12b,
)


class TestRendering:
    def test_render_grid(self):
        text = render_grid("T", ("a", "b"), [(1, 2.5), (3, 4.0)])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_series(self):
        text = render_series("T", "x", [1, 2], {"s1": [0.1, 0.2], "s2": [9, 8]})
        assert "s1" in text and "s2" in text
        assert "0.1" in text

    def test_float_formatting(self):
        text = render_grid("T", ("v",), [(0.000123456,)])
        assert "0.0001235" in text


class TestFig7Driver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7(n_items=40, budgets=(15.0, 45.0), sampling_trials=1)

    def test_panels_cover_budgets(self, result):
        assert [p.budget for p in result.cv_points] == [15.0, 45.0]
        assert [p.budget for p in result.training_points] == [15.0, 45.0]

    def test_render_contains_both_panels(self, result):
        text = result.render()
        assert "Figure 7(a,b)" in text and "Figure 7(c)" in text

    def test_errors_finite(self, result):
        for p in result.cv_points:
            assert np.isfinite(p.bel_err)


class TestFig8Driver:
    def test_runs_and_renders(self):
        result = run_fig8(n_items=40, budgets=(20.0,), n_folds=2)
        assert len(result.basic) == len(result.tree) == len(result.cube) == 1
        assert "Figure 8" in result.render()


class TestFig10Driver:
    def test_single_point(self):
        result = run_fig10a(
            noises=(0.5,), n_datasets=1, n_items=120, n_folds=2
        )
        assert len(result.basic) == 1
        assert np.isfinite(result.tree[0])


class TestScalingDrivers:
    def test_fig11b_series_lengths(self):
        result = run_fig11b(region_counts=(4, 8), n_items=150)
        assert len(result.xs) == 2
        assert result.xs[1] > result.xs[0]
        assert all(len(v) == 2 for v in result.series.values())

    def test_fig12b_rows(self):
        result = run_fig12b(feature_counts=(2, 4), n_items=150, n_regions=6)
        assert result.xs == [2, 4]
        assert all(s > 0 for s in result.seconds)

    def test_fig11f_sweeps_both_backends(self, tmp_path):
        # run_fig11f itself asserts the warm path reads zero facts and
        # reproduces the cold optimized cube bit-for-bit.  (It swept an npz
        # and a columnar backend until there was one on-disk store.)
        result = run_fig11f(
            n_items=120, n_regions=6, scratch_dir=tmp_path, journal_path=None
        )
        assert result.xs == (120 * 6,)
        assert set(result.series) == {
            "generate", "cold optimized cube", "table build", "warm build"
        }
        assert all(
            len(v) == 1 and v[0] > 0 for v in result.series.values()
        )
        assert (tmp_path / "store" / "manifest.json").exists()

    def test_fig11f_rejects_unknown_backend(self, tmp_path):
        for backends in (("npz",), ("columnar",), ("tape",)):
            with pytest.raises(TypeError, match="backends"):
                run_fig11f(backends=backends, scratch_dir=tmp_path,
                           journal_path=None)


class TestCli:
    def test_fast_figure_runs(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig12b", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Figure 12(b)" in out

    def test_unknown_figure_rejected(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["figX"])
