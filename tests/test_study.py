"""Experiment driver: order fitting, table emission, study execution."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import nlcolloc
from nlcolloc import coeffs, study
from nlcolloc.grid import KernelParams, UniformGrid
from nlcolloc.oracle import constant, exact_nonlocal_rhs, exponential, monomial
from nlcolloc.study import StudyConfig, StudyReport, StudyRow


class TestFitOrders:
    def test_synthetic_power_law(self):
        hs = [1.0 / 2 ** k for k in range(5)]
        for p in (1.0, 2.0, 3.3):
            errs = [7.2 * h ** p for h in hs]
            orders = study.fit_orders(hs, errs)
            assert orders[0] is None
            assert all(abs(o - p) < 1e-12 for o in orders[1:])

    def test_floor_entries_excluded(self):
        hs = [0.1, 0.05, 0.025]
        errs = [1e-8, 1e-13, 1e-14]
        orders = study.fit_orders(hs, errs)
        assert orders == [None, None, None]

    def test_non_halving_levels(self):
        hs = [1.0 / 10, 1.0 / 30]
        errs = [h ** 2 for h in hs]
        assert study.fit_orders(hs, errs)[1] == pytest.approx(2.0)


class TestConfigValidation:
    def test_levels_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            StudyConfig("plc", 0.5, (32, 16))

    def test_levels_must_nest(self):
        with pytest.raises(ValueError, match="multiple"):
            StudyConfig("plc", 0.5, (16, 24))

    def test_scheme_checked(self):
        with pytest.raises(ValueError, match="scheme"):
            StudyConfig("spline", 0.5, (16,))

    def test_gamma_checked(self):
        with pytest.raises(ValueError, match="gamma"):
            StudyConfig("plc", 1.0, (16,))


class TestTruncationStudy:
    def test_moving_first_point_tracks_h(self):
        config = StudyConfig("plc", 0.4, (8, 16),
                             evalPoints=("first",))
        report = study.run_truncation_study(config)[0]
        # the error at x=h differs level to level; both entries present
        assert len(report.rows) == 2
        assert report.rows[0].N == 8 and report.rows[1].N == 16
        assert report.rows[0].error > report.rows[1].error > 0.0

    def test_one_report_per_point(self):
        config = StudyConfig("plc", 0.4, (8, 16),
                             evalPoints=("center", 0.3))
        reports = study.run_truncation_study(config)
        assert [r.label for r in reports] == ["x=center", "x=0.3"]

    def test_exact_function_floors(self):
        config = StudyConfig("pqc", 0.5, (8, 16),
                             testFunction=monomial(2))
        report = study.run_truncation_study(config)[0]
        assert all(r.floor for r in report.rows)
        assert all(r.order is None for r in report.rows)

    def test_builds_no_weight_table(self, monkeypatch):
        # |I - I_k| needs only the interpolant, never the collocation weights
        originals = (coeffs.plc_weights, coeffs.pqc_weights)

        def refuse(*args, **kwargs):
            raise AssertionError("a weight table was built")

        for name, module in list(sys.modules.items()):
            if name == "nlcolloc" or name.startswith("nlcolloc."):
                for attr, value in list(vars(module).items()):
                    if any(value is f for f in originals):
                        monkeypatch.setattr(module, attr, refuse)
        params, grid = KernelParams(0.5), UniformGrid(0.0, 1.0, 8)
        for scheme, definition in study.SCHEMES.items():
            assert definition.weights is refuse
            problem = exact_nonlocal_rhs(constant(), grid, params, nodes=scheme)
            with pytest.raises(AssertionError, match="weight table"):
                definition.assemble(params, grid, problem)
            config = StudyConfig(scheme, 0.5, (8, 16),
                                 evalPoints=("first", "center", 1.0 / 3.0))
            reports = study.run_truncation_study(config)
            assert [len(r.rows) for r in reports] == [2, 2, 2]


class TestGlobalStudy:
    def test_constant_solution_reproduced(self):
        config = StudyConfig("plc", 0.5, (8, 16),
                             testFunction=constant(4.0))
        report = study.run_global_study(config)
        assert all(r.error <= 1e-10 for r in report.rows)

    def test_errors_decrease_for_exp(self):
        config = StudyConfig("pqc", 0.3, (4, 8, 16),
                             testFunction=exponential())
        report = study.run_global_study(config)
        errs = report.errors()
        assert np.all(errs[:-1] > errs[1:])

    def test_metadata_echoes_config(self):
        config = StudyConfig("plc", 0.2, (4, 8))
        report = study.run_global_study(config)
        assert report.metadata["scheme"] == "plc"
        assert report.metadata["gamma"] == 0.2
        assert report.metadata["levels"] == (4, 8)
        # the config and nothing else, so that identical runs compare equal
        assert set(report.metadata) == {"scheme", "gamma", "interval",
                                        "levels", "function"}


class TestDeterminism:
    # two identical runs must compare equal, metadata included
    def test_global_study_repeats(self):
        config = StudyConfig("pqc", 0.3, (4, 8))
        assert study.run_global_study(config) == study.run_global_study(config)

    def test_truncation_study_repeats(self):
        config = StudyConfig("plc", 0.7, (8, 16),
                             evalPoints=("first", "center"))
        assert (study.run_truncation_study(config)
                == study.run_truncation_study(config))


def synthetic_report():
    rows = (StudyRow(16, 1 / 16, 8.9488e-03, None),
            StudyRow(32, 1 / 32, 4.4746e-03, 0.9999))
    return StudyReport(rows=rows, label="max-norm error", metadata={})


class TestEmission:
    def test_csv_format(self):
        text = study.emit_table(synthetic_report(), "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "N,h,error,order"
        assert lines[1] == "16,0.0625,8.9488e-03,"
        assert lines[2] == "32,0.03125,4.4746e-03,0.9999"

    def test_markdown_format(self):
        text = study.emit_table(synthetic_report(), "markdown")
        assert text.startswith("| N | h |")
        assert "8.9488e-03" in text

    @pytest.mark.parametrize("interval, want", [
        ((0.0, 1.0), ["1/8", "1/16"]),
        ((-1.0, 3.0), ["1/2", "1/4"]),
        ((0.0, 3.0), ["0.375", "0.1875"]),
        ((0.0, 10.0), ["1.25", "0.625"]),
    ])
    def test_markdown_h_column(self, interval, want):
        # 1/k only where k*h = 1; the (0, 3) and (0, 10) rows once printed
        # 1/3, 1/5 and 1/1.25, 1/2
        rows = tuple(StudyRow(N, UniformGrid(*interval, N).h, 1e-3, None)
                     for N in (8, 16))
        report = StudyReport(rows=rows, label="max-norm error", metadata={})
        text = study.emit_table(report, "markdown")
        assert [ln.split(" | ")[1] for ln in text.splitlines()[2:]] == want

    def test_empty_report_rejected(self):
        empty = StudyReport(rows=(), label="", metadata={})
        with pytest.raises(ValueError, match="empty"):
            study.emit_table(empty)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            study.emit_table(synthetic_report(), "latex")


def test_scheme_interface_and_traced_names_resolve():
    # the benchmark's tracer looks these functions up by name; read its
    # tables from bench/child.py without running it
    path = Path(__file__).resolve().parents[1] / "bench" / "child.py"
    spec = importlib.util.spec_from_file_location("bench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    pairs = list(child.LAYERS) + list(child.COUNTED)
    assert pairs
    for module, function in pairs:
        assert callable(getattr(getattr(nlcolloc, module), function)), \
            f"nlcolloc.{module}.{function}"
    for definition in study.SCHEMES.values():
        for function in ("weights", "structure", "nodes", "assemble",
                         "truncation"):
            assert callable(getattr(definition, function)), \
                f"{definition.__name__}.{function}"
