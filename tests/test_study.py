"""Experiment driver: order fitting, table emission, study execution."""

import importlib.util
import inspect
import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nlcolloc
from nlcolloc import coeffs, oracle, plc, pqc, study
from nlcolloc.grid import KernelParams, UniformGrid
from nlcolloc.oracle import constant, exact_nonlocal_rhs, exponential, monomial
from nlcolloc.study import StudyConfig, StudyReport, StudyRow
from reference import global_study_by_level, truncation_study_by_point


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

    @pytest.mark.parametrize("levels", [(0, 4), (1, 2), (-4, 8),
                                        (16.0, 32.0)])
    def test_levels_are_grid_sizes(self, levels):
        # (0, 4) once raised ZeroDivisionError in the nesting check; the
        # others were accepted and failed only when the study ran
        with pytest.raises(ValueError, match="integer >= 2"):
            StudyConfig("plc", 0.5, levels)

    @pytest.mark.parametrize("interval, rule", [((1.0, 0.0), "a < b"),
                                                ((0.0, math.inf), "finite")])
    def test_interval_checked(self, interval, rule):
        # both were once accepted and failed only when the study ran
        with pytest.raises(ValueError, match=rule):
            StudyConfig("plc", 0.5, (8,), interval=interval)

    def test_scheme_checked(self):
        with pytest.raises(ValueError, match="scheme"):
            StudyConfig("spline", 0.5, (16,))

    def test_gamma_checked(self):
        with pytest.raises(ValueError, match="gamma"):
            StudyConfig("plc", 1.0, (16,))

    @pytest.mark.parametrize("point", ["centre", "0.5", None, 1j])
    def test_eval_points_checked(self, point):
        # "centre" once built a config whose study raised "could not
        # convert string to float"
        with pytest.raises(ValueError, match=f"eval point {point!r}"):
            StudyConfig("plc", 0.5, (8, 16), evalPoints=("center", point))

    def test_eval_points_accepted(self):
        StudyConfig("plc", 0.5, (8, 16),
                    evalPoints=("center", "first", 0.3, np.float64(0.3), 1))


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

    def test_repeated_eval_point(self):
        # the rows are kept per position: a repeated point once made two
        # errors per level under one key, and fit_orders raised IndexError
        config = StudyConfig("plc", 0.3, (16, 32, 64),
                             evalPoints=("center", "center"))
        single = StudyConfig("plc", 0.3, (16, 32, 64))
        reports = study.run_truncation_study(config)
        assert reports == study.run_truncation_study(single) * 2


# The intervals: a short one, one across zero, one far from it (where e^y
# overflows, so every exp study fails), and one on which the points
# a + j (h/p) of the non-power-of-two ladders would not nest bit for bit.
SWEEP = list(itertools.product(
    ("plc", "pqc"), (0.0, 0.3, 0.7), (exponential(), constant(2.5), monomial(3)),
    ((0.0, 1.0), (-2.0, 3.0), (1000.0, 1001.0), (0.1, 0.7)),
    ((16, 32, 64, 128), (16, 48), (12, 24, 72))))


def outcome(run, config):
    """The study's result, or the type of the exception it raised."""
    try:
        return run(config)
    except oracle.OracleError as exc:
        return type(exc)


def counting(monkeypatch, name):
    """Count the calls the study module makes to its oracle function name."""
    calls = []
    original = getattr(study, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(study, name, counted)
    return calls


class TestSharedOracleCalls:
    """The studies' rows equal, bit for bit, those of one oracle call per
    row, which is how tests/reference.py computes them."""

    def test_truncation_rows_equal_per_point_calls(self, monkeypatch):
        calls = counting(monkeypatch, "singular_integrals")
        for scheme, gamma, u, (a, b), levels in SWEEP:
            third = a + (b - a) / 3.0
            config = StudyConfig(scheme, gamma, levels, interval=(a, b),
                                 testFunction=u,
                                 evalPoints=("first", third, "center", third))
            calls.clear()
            got = outcome(study.run_truncation_study, config)
            assert len(calls) == 1, config
            assert got == outcome(truncation_study_by_point, config), config

    def test_global_rows_equal_per_level_calls(self, monkeypatch):
        # every coarser lattice is a slice of the finest, whatever the ratio
        calls = counting(monkeypatch, "exact_nonlocal_rhs")
        for scheme, gamma, u, interval, levels in SWEEP:
            config = StudyConfig(scheme, gamma, levels, interval=interval,
                                 testFunction=u)
            calls.clear()
            got = outcome(study.run_global_study, config)
            assert len(calls) == 1, config
            assert got == outcome(global_study_by_level, config), config

    @pytest.mark.parametrize("run", [study.run_truncation_study,
                                     study.run_global_study])
    def test_overflow_raises_before_any_warning(self, run):
        # e^720 overflows float64: the oracle, called first, raises before
        # the samples or u(nodes) warn
        config = StudyConfig("pqc", 0.5, (8, 16), interval=(700.0, 720.0),
                             evalPoints=("first", "center"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(oracle.OracleError):
                run(config)


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
        errs = np.array([r.error for r in report.rows])
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
        ((0.0, 1e-310), ["1.25e-311", "6.25e-312"]),
    ])
    def test_markdown_h_column(self, interval, want):
        # 1/k only where k*h = 1; the (0, 3) and (0, 10) rows once printed
        # 1/3, 1/5 and 1/1.25, 1/2, and a subnormal h, whose 1/h is
        # infinite, raised OverflowError
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
    traced = [getattr(getattr(nlcolloc, module), function)
              for module, function in pairs]
    for (module, function), value in zip(pairs, traced):
        assert callable(value), f"nlcolloc.{module}.{function}"
    # the tracer wraps each listed function once; two names for one function
    # would wrap it twice and count its calls twice
    assert len({id(f) for f in traced}) == len(traced)
    # the benchmark's manufactured right-hand sides use the tables' accuracy
    assert child.ORACLE_TOL == oracle.ORACLE_TOL
    for definition in study.SCHEMES.values():
        for function in ("weights", "structure", "boundary", "order",
                         "lattice", "nodes", "rule", "interpolant_integral",
                         "assemble", "truncation"):
            assert callable(getattr(definition, function)), \
                f"{definition.__name__}.{function}"


def test_shared_functions_call_through_the_scheme_attributes(monkeypatch):
    # collocation looks a scheme's functions up at call time, so a function
    # rebound on the scheme module (the benchmark's tracer, the monkeypatches
    # here) sees every call the shared functions make
    calls = []

    def counting(name, function):
        def counted(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(plc, "interpolant_integral",
                        counting("interpolant_integral", plc.interpolant_integral))
    monkeypatch.setattr(pqc, "structure", counting("structure", pqc.structure))
    params, grid, u = KernelParams(0.5), UniformGrid(0.0, 1.0, 8), exponential()
    plc.truncation(params, grid, u, 0.5)
    plc.truncation_error(params, grid, u, 0.5)
    assert calls == ["interpolant_integral"] * 2
    study.run_truncation_study(StudyConfig("plc", 0.5, (8, 16)))
    assert calls == ["interpolant_integral"] * 4
    calls.clear()
    pqc.rule(pqc.weights(params, grid), u(pqc.lattice(grid)))
    assert calls == ["structure"]
    pqc.assemble(params, grid, exact_nonlocal_rhs(u, grid, params, nodes="pqc"))
    assert calls == ["structure"] * 2


def test_every_oracle_tolerance_defaults_to_the_oracles():
    # the oracle's accuracy is stated once, in oracle.py; a library call
    # with defaults gets the accuracy the tables use
    for function in (oracle.singular_integrals, oracle.singular_integral,
                     oracle.exact_nonlocal_rhs, plc.truncation_error,
                     pqc.pqc_truncation_at):
        default = inspect.signature(function).parameters["tol"].default
        assert default is oracle.ORACLE_TOL, function.__name__
    assert not hasattr(study, "ORACLE_TOL")


def test_float_eval_point_outside_the_interval_rejected():
    # the study passes a float point on as-is; the oracle rejects it
    config = StudyConfig("plc", 0.5, (8,), evalPoints=(1.5,))
    with pytest.raises(ValueError, match="strictly inside"):
        study.run_truncation_study(config)
