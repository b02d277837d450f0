"""CLI and output-layer tests: parsing, formatting, exit codes, determinism."""

import json
import math
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from zel import cli, tails, zeta_core
from zel.prime_poly import PrimeTable, sieve
from zel.emit import (NonFiniteOutput, flags_cell, fmt_cell, fmt_float,
                      write_csv, write_json)
from zel.zeta_core import NearZeroOnPath


# ---------------------------------------------------------------------------
# argument helpers


class TestParseGrid:
    def test_span_inclusive(self):
        grid = cli.parse_grid("50:200:10")
        assert len(grid) == 16
        assert grid[0] == 50.0 and grid[-1] == 200.0

    def test_span_endpoint_roundoff(self):
        # 0.5:2.0:0.5 must land on 2.0 despite binary 0.5 steps
        assert cli.parse_grid("0.5:2.0:0.5") == (0.5, 1.0, 1.5, 2.0)

    def test_comma_list(self):
        assert cli.parse_grid("1,2.5,10") == (1.0, 2.5, 10.0)

    def test_single(self):
        assert cli.parse_grid("42") == (42.0,)

    @pytest.mark.parametrize("text", ["", " ", ",", " , "])
    def test_empty(self, text):
        assert cli.parse_grid(text) == ()

    def test_empty_v_grid_exit_code(self, capsys):
        rc = cli.main(["predict", "--family", "strip_eta", "--sigma", "0.75",
                       "--m", "0", "--V", ""])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: --V lists no values\n")

    def test_two_part_span_rejected(self):
        with pytest.raises(ValueError, match="start:stop:step"):
            cli.parse_grid("1:2")

    def test_reversed_span_rejected(self):
        with pytest.raises(ValueError, match="stop >= start"):
            cli.parse_grid("5:4:1")

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_grid("1:2:0")

    def test_cap_boundary(self):
        assert len(cli.parse_grid(f"1:{tails.MAX_ETA_GRID}:1")) == tails.MAX_ETA_GRID

    @pytest.mark.parametrize("span", [f"0:{tails.MAX_ETA_GRID}:1", "0:1e12:1"])
    def test_oversized_span_rejected_before_building(self, monkeypatch, span):
        def no_tuple(*args):
            raise AssertionError("grid points built before the cap check")

        monkeypatch.setattr(cli, "tuple", no_tuple, raising=False)
        with pytest.raises(ValueError, match=f"caps at {tails.MAX_ETA_GRID}"):
            cli.parse_grid(span)

    def test_oversized_v_grid_exit_code(self, capsys):
        rc = cli.main(["predict", "--family", "strip_eta", "--sigma", "0.75",
                       "--m", "0", "--V", "1:2e5:1"])
        assert rc == 2
        assert f"caps at {tails.MAX_ETA_GRID}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output layer


class TestEmit:
    def test_fmt_float_roundtrip(self):
        for x in (0.1, 1.0 / 3.0, -2.5e300, 1e-17, 961.0):
            assert float(fmt_float(x)) == x

    def test_fmt_float_rejects_nonfinite(self):
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteOutput):
                fmt_float(x)

    def test_fmt_cell_variants(self):
        assert fmt_cell(None) == ""
        assert fmt_cell(True) == "true"
        assert fmt_cell(False) == "false"
        assert fmt_cell(np.int64(5)) == "5"
        assert fmt_cell(np.float64(0.5)) == "0.5"
        assert fmt_cell("tag") == "tag"

    def test_flags_cell(self):
        assert flags_cell(("a", "b")) == "a;b"
        assert flags_cell(()) == ""

    def test_csv_crlf(self):
        buf = io.StringIO()
        write_csv(buf, ("a", "b"), [(1, 2.5)])
        assert buf.getvalue() == "a,b\r\n1,2.5\r\n"

    def test_csv_nonfinite_rejected(self):
        with pytest.raises(NonFiniteOutput):
            write_csv(io.StringIO(), ("a",), [(math.inf,)])

    def test_json_payload(self):
        buf = io.StringIO()
        write_json(buf, {"m": 1, "V": (1.0, 2.0)}, ("a", "b"),
                   [(1, None), (True, "x")])
        payload = json.loads(buf.getvalue())
        assert sorted(payload) == ["columns", "config", "rows"]
        assert payload["columns"] == ["a", "b"]
        assert payload["rows"] == [[1, None], [True, "x"]]
        assert payload["config"]["V"] == [1.0, 2.0]

    def test_json_nonfinite_rejected(self):
        with pytest.raises(NonFiniteOutput):
            write_json(io.StringIO(), {}, ("a",), [(math.nan,)])


# ---------------------------------------------------------------------------
# subcommand round trips


# the message for a bad --X, by the flag's text
_BAD_X = {X: f"--X must be finite and >= 3, got {X}" for X in ("inf", "nan")}
_BAD_X["2e8"] = "--X must be <= 100000000, the sieve cap, got 200000000.0"


def run_lines(argv, tmp_path, name="out.csv"):
    path = tmp_path / name
    rc = cli.main([*argv, "--out", str(path)])
    assert rc == 0
    return path.read_text().splitlines()


class TestPredict:
    def test_grid_rows(self, tmp_path):
        lines = run_lines(["predict", "--family", "strip_eta",
                           "--sigma", "0.75", "--m", "0", "--V", "50:200:10"],
                          tmp_path)
        assert len(lines) == 17
        assert lines[0] == "V,family,exponent,error_window,validity_flags"
        first = lines[1].split(",")
        assert float(first[0]) == 50.0
        assert first[1] == "strip_eta"
        assert float(first[2]) > 0.0

    def test_critical_needs_x(self, capsys):
        rc = cli.main(["predict", "--family", "critical_poly",
                       "--m", "1", "--V", "10"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_range_flag_needs_t(self, tmp_path):
        args = ["predict", "--family", "strip_eta", "--sigma", "0.75",
                "--m", "0", "--V", "10"]
        assert run_lines(args, tmp_path)[1].split(",")[4] == ""
        with_t = run_lines([*args, "--T", "1e6"], tmp_path, "t.csv")
        assert "v_above_a4" in with_t[1].split(",")[4]

    @pytest.mark.parametrize("V,shown", [("nan", "nan"), ("1e400", "inf"),
                                         ("10,-inf", "-inf")])
    def test_nonfinite_v_rejected_by_name(self, capsys, V, shown):
        rc = cli.main(["predict", "--family", "strip_eta", "--sigma", "0.75",
                       "--m", "0", "--V", V])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: --V must be finite, got {shown}\n")

    @pytest.mark.parametrize("argv,message", [
        (["--X", "1"], "X must be finite and > 1, got 1.0"),
        (["--X", "nan"], "X must be finite and > 1, got nan"),
        (["--X", "inf"], "X must be finite and > 1, got inf"),
        (["--X", "1e5", "--T", "1"], "T must be finite and > e, got 1.0"),
        (["--X", "1e5", "--T", "0.5"], "T must be finite and > e, got 0.5"),
        (["--X", "1e5", "--T", "2"], "T must be finite and > e, got 2.0"),
        (["--X", "1e5", "--T", "nan"], "T must be finite and > e, got nan"),
        (["--X", "1e5", "--T", "inf"], "T must be finite and > e, got inf"),
    ])
    def test_x_and_t_validated(self, capsys, argv, message):
        rc = cli.main(["predict", "--family", "critical_poly", "--m", "1",
                       "--V", "5", *argv])
        assert rc == 2
        # each message names its flag: --X or --T
        assert capsys.readouterr() == ("", f"error: --{message}\n")

    @pytest.mark.parametrize("family,argv", [
        ("critical_poly", ["--X", "1e5"]),
        ("critical_eta", ["--T", "1e6"]),
        ("strip_poly", ["--sigma", "0.75", "--X", "1e5"]),
        ("strip_eta", ["--sigma", "0.75"]),
    ])
    def test_v_past_double_range_rejected_by_name(self, capsys, family, argv):
        rc = cli.main(["predict", "--family", family, "--m", "1",
                       "--V", "1e300", *argv])
        assert rc == 2
        assert capsys.readouterr() == ("", (
            f"error: --V 1e+300, --m 1: the {family} exponent passes the "
            f"double range\n"))

    def test_m_past_double_range_rejected_without_warning(self, capsys):
        # (1 - sigma)^(2 sigma - 1 + m) in A_m(sigma) underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["predict", "--family", "strip_eta", "--sigma", "0.75",
                           "--m", "100000", "--V", "5"])
        assert rc == 2
        assert capsys.readouterr() == ("", (
            "error: --V 5, --m 100000: the strip_eta exponent passes the "
            "double range\n"))


class TestMoments:
    def test_three_method_rows(self, tmp_path):
        lines = run_lines(["moments", "--sigma", "0.5", "--m", "1",
                           "--X", "31", "--T", "1e4", "--k", "1,2,3,4",
                           "--methods", "all"], tmp_path)
        assert len(lines) == 13
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[1] for r in rows[:3]] == ["exact_multiplicative", "contour",
                                            "empirical"]
        k2 = [r for r in rows if r[0] == "2"]
        assert float(k2[0][4]) < 0.02          # k=2 agreement across methods
        k1_exact = [r for r in rows
                    if r[0] == "1" and r[1].startswith("exact")][0]
        assert float(k1_exact[2]) == 0.0       # odd moments vanish exactly

    def test_one_pass_rows_match_single_k_runs(self, tmp_path):
        base = ["moments", "--sigma", "0.5", "--m", "1", "--theta", "0.7",
                "--X", "31", "--T", "1e4", "--methods", "empirical"]
        lines = run_lines(base + ["--k", "2,4,6"], tmp_path)
        singles = [run_lines(base + ["--k", k], tmp_path)
                   for k in ("2", "4", "6")]
        assert all(len(s) == 2 for s in singles)
        assert lines[0] == singles[0][0]
        assert lines[1:] == [s[1] for s in singles]

    @pytest.mark.parametrize("T,shown", [("inf", "inf"), ("nan", "nan"),
                                         ("-1", "-1.0")])
    def test_bad_t_rejected_by_name(self, monkeypatch, capsys, T, shown):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built before the --T check")

        monkeypatch.setattr(cli, "TGrid", no_grid)
        rc = cli.main(["moments", "--sigma", "0.5", "--m", "1", "--X", "31",
                       "--T", T, "--k", "2", "--methods", "empirical"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --T must be finite and > 0, got {shown}\n")

    @pytest.mark.parametrize("X", ["inf", "nan", "2e8"])
    def test_bad_x_rejected_by_name(self, capsys, X):
        rc = cli.main(["moments", "--sigma", "0.5", "--m", "1", "--X", X,
                       "--k", "2", "--methods", "exact"])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: " + _BAD_X[X] + "\n")

    @pytest.mark.parametrize("methods", ["empirical", "exact", "contour"])
    def test_order_below_one_rejected_by_name(self, capsys, methods):
        rc = cli.main(["moments", "--sigma", "0.5", "--m", "1", "--X", "31",
                       "--T", "1e3", "--k", "2,0", "--methods", methods])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "error: --k must list orders >= 1, got 0\n")

    @pytest.mark.parametrize("methods", ["exact", "contour"])
    def test_bad_t_rejected_without_empirical(self, capsys, tmp_path, methods):
        # --T steers only the empirical route, but a given --T is checked
        path = tmp_path / "out.json"
        rc = cli.main(["moments", "--sigma", "0.5", "--m", "1", "--X", "31",
                       "--k", "2", "--methods", methods, "--T", "nan",
                       "--format", "json", "--out", str(path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --T must be finite and > 0, got nan\n")
        assert not path.exists()

    @pytest.fixture
    def built(self, monkeypatch):
        """The limits of the prime tables built during the test."""
        limits, build = [], PrimeTable.build

        def spy(limit):
            limits.append(limit)
            return build(limit)

        monkeypatch.setattr(PrimeTable, "build", spy)
        return limits

    @pytest.mark.parametrize("methods", ["exact", "contour", "all"])
    def test_prime_budget_before_sieve(self, capsys, built, methods):
        # pi(1e8) = 5,761,455; x/ln x proves the budget passed without a sieve
        for X in ("1e8", "1.5e6"):
            rc = cli.main(["moments", "--sigma", "0.5", "--m", "1", "--X", X,
                           "--T", "1e3", "--k", "2", "--methods", methods])
            assert rc == 2
            route = "contour" if methods == "contour" else "exact"
            assert capsys.readouterr().err.endswith(
                f"primes (pi(x) > x/ln x), past the {route} budget 100000\n")
        assert built == []

    def test_exact_route_builds_one_table(self, tmp_path, built):
        run_lines(["moments", "--sigma", "0.5", "--m", "1", "--X", "31",
                   "--k", "2", "--methods", "exact"], tmp_path)
        assert built == [31]

    def test_contour_order_limit(self, capsys):
        rc = cli.main(["moments", "--sigma", "0.5", "--m", "1", "--X", "3",
                       "--T", "1e4", "--k", "600", "--methods", "contour"])
        assert rc == 2
        assert "k <= 170" in capsys.readouterr().err

    @staticmethod
    def _series_moment(k):
        """k! [w^k] prod_{p<=31} I0(w c_p) at m=1, sigma=1/2, multiplied
        out from each factor's Taylor coefficients.  Every coefficient is
        positive, so nothing cancels."""
        coef = np.zeros(k + 1)
        coef[0] = 1.0
        for p in sieve(31).tolist():
            c = p ** -0.5 / math.log(p)
            factor = np.zeros(k + 1)
            factor[0::2] = [(0.5 * c) ** (2 * n) / math.factorial(n) ** 2
                            for n in range(k // 2 + 1)]
            coef = np.convolve(coef, factor)[:k + 1]
        return math.factorial(k) * coef[k]

    @pytest.mark.parametrize("k", [150, 170])
    def test_contour_large_k(self, tmp_path, k):
        # k! times the raw node sum (k = 150) and R^k (k = 170) overflow a double
        lines = run_lines(["moments", "--sigma", "0.5", "--m", "1", "--X", "31",
                           "--k", str(k), "--methods", "contour"], tmp_path)
        row = lines[1].split(",")
        assert row[1] == "contour" and row[5] == ""
        assert float(row[2]) == pytest.approx(self._series_moment(k), rel=1e-11)

    def test_contour_huge_weights_match_exact(self, tmp_path):
        # c_2 = 2^-1/2 (log 2)^-500 ~ 2.7e79 puts the saddle at R ~ 1e-79
        lines = run_lines(["moments", "--sigma", "0.5", "--m", "500", "--X", "3",
                           "--k", "2", "--methods", "exact,contour"], tmp_path)
        exact, contour = (float(ln.split(",")[2]) for ln in lines[1:])
        assert exact == pytest.approx(3.7366202540771686e158, rel=1e-15)
        assert contour == pytest.approx(exact, rel=1e-10)

    def test_contour_infinite_weights_rejected(self, capsys):
        # (log 2)^-2000 ~ 1e318 is past the double range
        rc = cli.main(["moments", "--sigma", "0.5", "--m", "2000", "--X", "3",
                       "--k", "2", "--methods", "contour"])
        assert rc == 2
        assert "overflow a double at m=2000" in capsys.readouterr().err

    def test_exact_past_double_range_exit_code(self, capsys):
        # w_2 = 2^-1/2 (log 2)^-500 ~ 2.7e79, so w_2^6 passes 1e308
        rc = cli.main(["moments", "--sigma", "0.5", "--m", "500", "--X", "31",
                       "--k", "6", "--methods", "exact"])
        assert rc == 4
        assert capsys.readouterr().err == (
            "error: exact moment for k=6, X=31 is not finite: the moment "
            "passes the double range (max 1.798e+308)\n")

    @pytest.mark.parametrize("method", ["exact", "contour"])
    def test_huge_weights_one_error_line(self, capsys, method):
        # w_2 ~ 1e159 is finite but w_2^2 is not: exit 4, and no numpy
        # RuntimeWarning (turned into an exception here) on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["moments", "--sigma", "0.5", "--m", "1000", "--X",
                           "3", "--k", "2", "--methods", method])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert err.endswith("passes the double range (max 1.798e+308)\n")

    def test_empirical_infinite_weights_rejected(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["moments", "--sigma", "0.5", "--m", "2000", "--X",
                           "3", "--T", "1e3", "--k", "2", "--methods",
                           "empirical"])
        assert rc == 2
        assert "overflow a double at m=2000" in capsys.readouterr().err

    def test_contour_past_double_range_exit_code(self, capsys):
        # c_2 = 2^-1/2 (log 2)^-20 ~ 1.1e3, so E P^170 ~ 1e517
        rc = cli.main(["moments", "--sigma", "0.5", "--m", "20", "--X", "3",
                       "--k", "170", "--methods", "contour"])
        assert rc == 4
        assert capsys.readouterr().err == (
            "error: contour sum for k=170, X=3 is not finite at 2720 nodes: "
            "the moment passes the double range (max 1.798e+308)\n")

    def test_empirical_needs_t(self, capsys):
        rc = cli.main(["moments", "--sigma", "0.5", "--m", "1", "--X", "31",
                       "--k", "2", "--methods", "empirical"])
        assert rc == 2
        assert "--T" in capsys.readouterr().err

    def test_unknown_method(self, capsys):
        rc = cli.main(["moments", "--sigma", "0.5", "--m", "1", "--X", "31",
                       "--k", "2", "--methods", "exact,magic"])
        assert rc == 2
        assert "unknown methods" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,text", [("--k", ""), ("--k", ","),
                                           ("--methods", ","),
                                           ("--methods", "")])
    def test_empty_list_rejected(self, capsys, flag, text):
        argv = ["moments", "--sigma", "0.5", "--m", "1", "--X", "31",
                "--k", "2", "--methods", "exact"]
        argv[argv.index(flag) + 1] = text
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {flag} lists no values\n")


class TestTail:
    def test_poly_route(self, tmp_path):
        lines = run_lines(["tail", "--route", "poly", "--sigma", "0.8",
                           "--m", "0", "--X", "31", "--T", "1e4",
                           "--V", "0.5:2.0:0.5"], tmp_path)
        assert lines[0] == ("V,count,fraction,predicted_exponent,log_ratio,"
                            "validity_flags")
        assert len(lines) == 5
        v05 = lines[1].split(",")
        assert int(v05[1]) > 0
        # V below the law's range: measured columns only
        assert v05[3] == "" and v05[4] == ""

    def test_poly_route_needs_x(self, capsys):
        rc = cli.main(["tail", "--sigma", "0.8", "--m", "0", "--T", "1e4",
                       "--V", "1"])
        assert rc == 2
        assert "--X" in capsys.readouterr().err

    def test_phase_cap_before_prime_table(self, monkeypatch, capsys):
        def no_table(limit):
            raise AssertionError("prime table built before the phase check")

        monkeypatch.setattr(PrimeTable, "build", no_table)
        rc = cli.main(["tail", "--route", "poly", "--sigma", "0.8", "--m", "0",
                       "--X", "1e5", "--T", "2e8", "--V", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--T 2e+08, --X 100000" in err and "(2^28 - 1) * 2 pi" in err

    @pytest.mark.parametrize("route", ["poly", "eta"])
    @pytest.mark.parametrize("T,shown", [("inf", "inf"), ("nan", "nan"),
                                         ("-1", "-1.0")])
    def test_bad_t_rejected_before_grid(self, monkeypatch, capsys, route,
                                        T, shown):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built before the --T check")

        monkeypatch.setattr(cli, "TGrid", no_grid)
        monkeypatch.setattr(cli, "dyadic_floor", no_grid)
        rc = cli.main(["tail", "--route", route, "--sigma", "0.75", "--m",
                       "1", "--X", "31", "--T", T, "--count", "4",
                       "--V", "0.5"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --T must be finite and > 0, got {shown}\n")

    @pytest.mark.parametrize("X", ["inf", "nan", "2e8"])
    def test_bad_x_rejected_by_name(self, monkeypatch, capsys, X):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built before the --X check")

        monkeypatch.setattr(cli, "TGrid", no_grid)
        rc = cli.main(["tail", "--route", "poly", "--sigma", "0.8", "--m",
                       "0", "--X", X, "--T", "1e3", "--V", "1"])
        assert rc == 2
        want = _BAD_X[X] if X == "2e8" else f"--X must be finite, got {X}"
        assert capsys.readouterr().err == "error: " + want + "\n"

    @pytest.mark.parametrize("argv,count,spacing", [
        (["--route", "eta", "--sigma", "0.75", "--m", "1", "--T", "1e16",
          "--count", "4"], 4, 2.5e15),
        (["--sigma", "0.8", "--m", "0", "--X", "31", "--T", "1e3",
          "--refine", "1000000000000"], 1640058130870538,
         6.09734485124136e-13),
    ])
    def test_dyadic_range_names_the_grid(self, capsys, argv, count, spacing):
        assert cli.main(["tail", *argv, "--V", "1"]) == 2
        err = capsys.readouterr().err
        T = float(argv[argv.index("--T") + 1])
        assert err.startswith(f"error: --T {T!r} with {count} points at "
                              f"spacing {spacing!r} exceeds the exact-double "
                              f"dyadic range (2^53 units of 2^-")
        assert err.count("\n") == 1
        # the refinement that drove the count up is named with it
        if "--refine" in argv:
            assert err.endswith(") at --refine 1000000000000\n")
        else:
            assert "--refine" not in err

    @pytest.mark.parametrize("route", ["poly", "eta"])
    @pytest.mark.parametrize("V,shown", [("nan", "nan"), ("0.5,inf", "inf")])
    def test_nonfinite_v_rejected_before_output(self, monkeypatch, capsys,
                                                route, V, shown):
        def boom(*args):
            raise AssertionError("evaluated before the V check")

        monkeypatch.setattr(tails, "eta_tilde", boom)
        rc = cli.main(["tail", "--route", route, "--sigma", "0.75", "--m",
                       "1", "--X", "31", "--T", "1e4", "--count", "4",
                       "--V", V])
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"error: --V must be finite, got {shown}\n")

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_eta_route_nonfinite_theta_rejected(self, monkeypatch, capsys,
                                                theta):
        def boom(*args):
            raise AssertionError("evaluated before the theta check")

        monkeypatch.setattr(tails, "eta_tilde", boom)
        rc = cli.main(["tail", "--route", "eta", "--sigma", "0.75", "--m",
                       "1", "--T", "1e4", "--count", "4", "--V", "0.5",
                       f"--theta={theta}"])
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"error: --theta must be finite, got {theta}\n")

    @pytest.mark.parametrize("argv,message", [
        (["tail", "--route", "poly", "--sigma", "0.8", "--m", "0", "--X", "31",
          "--T", "1e3", "--V", "1", "--refine", "0"],
         "--refine must be >= 1, got 0"),
        (["tail", "--route", "eta", "--sigma", "0.75", "--m", "1", "--T",
          "1e4", "--count", "4", "--V", "2,1"],
         "--V must be 1-d and strictly ascending, got [2.0, 1.0]"),
        (["moments", "--sigma", "0.5", "--m", "1", "--X", "31", "--k", "2",
          "--theta", "nan", "--methods", "exact"],
         "--theta must be finite, got nan"),
        (["tail", "--route", "poly", "--sigma", "0.8", "--m", "0", "--X", "31",
          "--T", "1e3", "--V", "1", "--theta", "nan"],
         "--theta must be finite, got nan"),
    ])
    def test_bad_value_names_its_flag(self, capsys, argv, message):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["tail", "--route", "poly", "--sigma", "0.8", "--m", "0", "--X", "31",
         "--V", "1"],
        ["tail", "--route", "eta", "--sigma", "0.75", "--m", "1",
         "--count", "40", "--V", "1"],
        ["moments", "--sigma", "0.5", "--m", "1", "--X", "31", "--k", "2",
         "--methods", "empirical"],
    ])
    def test_t_off_lattice_rejected_by_name(self, capsys, argv):
        # 100.1 is no multiple of the spacing's 2^-k unit on either route,
        # but its own 2^-45 unit holds the whole grid: exact, so it runs;
        # 100 + 2^-46 passes 2^53 of its units and is refused by name
        assert cli.main([*argv, "--T", "100.1"]) == 0
        out, err = capsys.readouterr()
        assert out and err == ""
        assert cli.main([*argv, "--T", repr(100 + 2.0 ** -46)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --T 100.00000000000001 with ")
        assert err.endswith(" exceeds the exact-double dyadic range "
                            "(2^53 units of 2^-46)\n")

    def test_eta_fine_spacing(self, capsys, tmp_path):
        # any spacing works while T and count spacings stay below 2^53
        # units of the finer lattice of T and the spacing; 1e-5 needs 2^-69
        rc = cli.main(["tail", "--route", "eta", "--sigma", "0.75", "--m",
                       "1", "--T", "1e-5", "--count", "2", "--V", "1"])
        assert rc == 2
        assert capsys.readouterr() == ("", (
            "error: --T 1e-05 with 2 points at spacing 4.999339580535889e-06 "
            "exceeds the exact-double dyadic range (2^53 units of 2^-69)\n"))
        lines = run_lines(["tail", "--route", "eta", "--sigma", "0.75",
                           "--m", "1", "--T", repr(2.0 ** -20), "--count", "4",
                           "--V", "1"], tmp_path)
        assert len(lines) == 2
        # a lattice unit below 2^-1023, where 2^k passes the double range,
        # still meets the exact check
        rc = cli.main(["tail", "--route", "eta", "--sigma", "0.75", "--m",
                       "1", "--T", "1e-306", "--count", "1", "--V", "1"])
        assert rc == 2
        assert capsys.readouterr() == ("", (
            "error: --T 1e-306 with 1 points at spacing 9.998925651666736e-307 "
            "exceeds the exact-double dyadic range (2^53 units of 2^-1069)\n"))

    @pytest.mark.parametrize("argv", [
        ["tail", "--route", "eta", "--sigma", "0.75", "--m", "1", "--T",
         "1e8", "--count", "4", "--V", "1"],
        ["tail", "--route", "eta", "--sigma", "0.75", "--m", "1", "--T",
         "1e8", "--count", "6", "--V", "1"],
        ["eta", "--m", "0", "--sigma", "2", "--t", "1e8"],
    ])
    def test_eta_phase_limit_before_sieve(self, monkeypatch, capsys, argv):
        # zeta there needs n^-it to n = 57,000,024: a sieve of about 2 GB;
        # the tail's grid is checked whole, under its own flag
        named = ("--T 1e+08" if argv[0] == "tail"
                 else "--t 1e+08, n<=57000024")
        def no_sieve(self, n):
            raise AssertionError(f"factor table grown to {n}")

        zeta_core._tail_table()         # the n <= 1e5 series table, built once
        monkeypatch.setattr(zeta_core._FactorTable, "below", no_sieve)
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {named}: phases t*omega")
        assert "exact-reduction limit (2^28 - 1) * 2 pi" in err

    @pytest.mark.parametrize("argv", [
        ["eta", "--m", "1", "--sigma", "0.75", "--t", "3e8"],
        ["eta", "--m", "1", "--sigma", "5", "--t", "3e8"],
    ])
    def test_eta_series_phase_limit_by_name(self, monkeypatch, capsys, argv):
        # the sigma >= 3 series reduces t log n for n <= 1000 exactly
        def no_table():
            raise AssertionError("series table read before the phase check")

        monkeypatch.setattr(zeta_core, "_tail_table", no_table)
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", (
            "error: --t 3e+08, n<=1000: phases t*omega up to 2.072e+09 pass the "
            "exact-reduction limit (2^28 - 1) * 2 pi = 1.687e+09\n"))

    @pytest.mark.parametrize("argv", [
        ["eta", "--sigma", "0.75", "--t", "10"],
        ["tail", "--route", "eta", "--sigma", "0.75", "--T", "1e4",
         "--count", "4", "--V", "0.5"],
    ])
    def test_m_past_factorial_range_rejected_by_name(self, capsys, argv):
        assert cli.main([*argv, "--m", "172"]) == 2
        assert capsys.readouterr() == ("", (
            "error: m must be <= 171, got 172: (m-1)! passes the double "
            "range\n"))

    @pytest.mark.parametrize("t", ["0", "1e-320", "10", "1e4"])
    @pytest.mark.parametrize("sigma", ["-1000", "-100", "0.5", "0.75", "3",
                                       "1000"])
    @pytest.mark.parametrize("m", ["1", "2", "170", "171"])
    def test_eta_sigma_and_m_range(self, capsys, m, sigma, t):
        # a RuntimeWarning is an error under the suite's filter
        rc = cli.main(["eta", "--m", m, "--sigma", sigma, "--t", t])
        out, err = capsys.readouterr()
        if float(sigma) <= zeta_core.ETA_SIGMA_MIN:
            assert (rc, out) == (2, "")
            assert err.startswith(f"error: --sigma must be > -3 for eta "
                                  f"values, got {sigma}: ")
        else:
            assert (rc, err) == (0, "")
            assert out.startswith("t,re,im,rotated,flags\r\n")

    def test_eta_route(self, tmp_path):
        lines = run_lines(["tail", "--route", "eta", "--sigma", "0.75",
                           "--m", "1", "--T", "100", "--count", "40",
                           "--V", "1e-4,1e-3"], tmp_path)
        assert len(lines) == 3
        fr = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert fr[0] >= fr[1]                  # nonincreasing in V

    @pytest.mark.parametrize("argv,flag", [
        (["--route", "eta", "--sigma", "0.75", "--m", "1", "--T", "1e4",
          "--count", "0"], "--count"),
        (["--route", "eta", "--sigma", "0.75", "--m", "1", "--T", "1e4",
          "--count", "-3"], "--count"),
        (["--sigma", "0.8", "--m", "0", "--X", "31", "--T", "1e3",
          "--refine", "0"], "--refine"),
        (["--sigma", "0.8", "--m", "0", "--X", "31", "--T", "1e3",
          "--refine", "-1"], "--refine"),
        # each route checks the other route's flag too, as both land in
        # the JSON config
        (["--route", "poly", "--sigma", "0.8", "--m", "0", "--X", "31",
          "--T", "1e3", "--count", "-5"], "--count"),
        (["--route", "eta", "--sigma", "0.75", "--m", "1", "--T", "1e4",
          "--count", "4", "--refine", "0"], "--refine"),
    ])
    def test_grid_size_below_one_rejected(self, capsys, argv, flag):
        assert cli.main(["tail", *argv, "--V", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be >= 1")
        assert err.count("\n") == 1

    def test_eta_spacing_underflow_rejected_by_name(self, capsys):
        rc = cli.main(["tail", "--route", "eta", "--sigma", "0.75", "--m",
                       "1", "--T", "5e-324", "--count", "4", "--V", "1"])
        assert rc == 2
        assert capsys.readouterr() == ("", (
            "error: --T / --count = 4.94066e-324 / 4 underflows to 0\n"))

    def test_eta_count_cap(self, monkeypatch, capsys):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built before the --count check")

        monkeypatch.setattr(cli, "TGrid", no_grid)
        rc = cli.main(["tail", "--route", "eta", "--sigma", "0.75", "--m",
                       "1", "--T", "100", "--count", "200000", "--V", "1"])
        assert rc == 2
        assert capsys.readouterr() == ("", (
            f"error: --count must be >= 1 and <= {tails.MAX_ETA_GRID}, the "
            f"eta grid cap, got 200000\n"))

    def test_nan_in_a_poly_block_exits_3(self, monkeypatch, capsys):
        # a NaN in the third of seven blocks is an upstream fault, never a
        # point above every level; one spec draws real (rotated) blocks
        real = tails.iter_poly_blocks

        def one_nan(*args, **kwargs):
            for i, (j0, p) in enumerate(real(*args, **kwargs)):
                assert kwargs == {"rotated": True} and p.dtype == np.float64
                if i == 2:
                    p[p.size // 2] = math.nan
                yield j0, p

        monkeypatch.setattr(tails, "iter_poly_blocks", one_nan)
        rc = cli.main(["tail", "--route", "poly", "--sigma", "0.8", "--m", "0",
                       "--X", "1e4", "--T", "1e5", "--V", "1.2:2.0:0.2"])
        assert rc == 3
        assert capsys.readouterr() == (
            "", "error: nonfinite value nan in an exceedance block\n")

    def test_eta_route_exclusion_flag(self, monkeypatch, tmp_path):
        # one of 8 points (t = 100) excluded: over 1%, so every row says so
        real = tails.eta_tilde

        def near_zero_at_100(m, sigma, t):
            if t == 100.0:
                raise NearZeroOnPath(sigma, t)
            return real(m, sigma, t)

        monkeypatch.setattr(tails, "eta_tilde", near_zero_at_100)
        lines = run_lines(["tail", "--route", "eta", "--sigma", "0.75",
                           "--m", "1", "--T", "100", "--count", "8",
                           "--V", "1e-3,3"], tmp_path)
        assert lines[0] == ("V,count,fraction,predicted_exponent,log_ratio,"
                            "validity_flags")
        flags = [ln.split(",")[5] for ln in lines[1:]]
        assert flags[0] == "exclusions_above_1pct"
        assert flags[1].split(";")[-1] == "exclusions_above_1pct"


class TestEtaCommand:
    @pytest.mark.parametrize("text", ["", ",", " , "])
    def test_empty_t_rejected(self, capsys, text):
        assert cli.main(["eta", "--sigma", "0.75", "--m", "1", "--t", text]) == 2
        assert capsys.readouterr() == ("", "error: --t lists no values\n")

    def test_point_cap(self, capsys):
        rc = cli.main(["eta", "--sigma", "0.75", "--m", "1",
                       "--t", "0:200000:1"])
        assert rc == 2
        assert "caps at 100000" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--m", "1", "--sigma", "nan", "--t", "20"],
         "--sigma must be finite, got nan"),
        (["--m", "1", "--sigma", "0.5", "--t", "nan"],
         "--t must be finite, got nan"),
        (["--m", "1", "--sigma", "0.5", "--t", "20,inf"],
         "--t must be finite, got inf"),
        (["--m", "-1", "--sigma", "0.5", "--t", "20"],
         "--m must be >= 0, got -1"),
        (["--m", "1", "--sigma", "0.5", "--t", "20", "--theta", "nan"],
         "--theta must be finite, got nan"),
        (["--m", "1", "--sigma", "0.5", "--t", "20", "--theta=-inf"],
         "--theta must be finite, got -inf"),
    ])
    def test_bad_values_rejected_before_evaluation(self, monkeypatch, capsys,
                                                   argv, message):
        def boom(*args):
            raise AssertionError("evaluated before validation")

        monkeypatch.setattr(tails, "eta_tilde", boom)
        monkeypatch.setattr(tails, "log_zeta_branched", boom)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["eta", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("m", ["0", "1", "2"])
    def test_non_finite_zeta_on_path_excluded(self, tmp_path, m):
        # zeta(1 + 1e-320j) is not finite, so the walk meets the pole
        lines = run_lines(["eta", "--sigma", "0.75", "--m", m,
                           "--t", "1e-320"], tmp_path)
        assert lines[1] == "9.9998886718268301e-321,,,,near_zero_excluded"

    @pytest.mark.parametrize("sigma", ["1e200", "1e300"])
    def test_huge_sigma_row_is_zero(self, tmp_path, sigma):
        # log zeta = 0 there: no ZetaAccuracyWarning, no exclusion flag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lines = run_lines(["eta", "--sigma", sigma, "--m", "0",
                               "--t", "1e4"], tmp_path)
        assert lines[1] == "10000,0,0,0,"

    def test_pointwise_rows(self, tmp_path):
        lines = run_lines(["eta", "--sigma", "0.75", "--m", "1",
                           "--t", "100:102:1"], tmp_path)
        assert lines[0] == "t,re,im,rotated,flags"
        assert len(lines) == 4
        row = lines[1].split(",")
        assert float(row[3]) == float(row[1])  # theta = 0: rotated == re

    def test_theta_rotation(self, tmp_path):
        lines = run_lines(["eta", "--sigma", "0.75", "--m", "1",
                           "--t", "100", "--theta", "1.5707963267948966"],
                          tmp_path)
        row = lines[1].split(",")
        assert math.isclose(float(row[3]), float(row[2]), rel_tol=1e-12,
                            abs_tol=1e-15)

    def test_large_t_frozen(self, tmp_path):
        # N = 855,025 terms, 67,975 prime logs; the value was taken with
        # every prime log from 40-digit Decimal.  Re is Int_0.75^inf
        # log|zeta(a + 1.5e6 i)| da, which Gauss-Legendre panels on mpmath's
        # zeta (30 digits) put at -0.3189460838928200836: 3.2e-15 away.
        # The main sum's product goes in pieces of 65,536 n, so these bytes
        # hold at every BLAS thread count
        lines = run_lines(["eta", "--sigma", "0.75", "--m", "1",
                           "--t", "1.5e6"], tmp_path)
        assert lines == ["t,re,im,rotated,flags",
                         "1500000,-0.31894608389281687,0.57497519418694776,"
                         "-0.31894608389281687,"]
        assert abs(float(lines[1].split(",")[1]) + 0.3189460838928200836) < 4e-15


class TestDeterminismAndErrors:
    ARGS = ["moments", "--sigma", "0.5", "--m", "1", "--X", "31",
            "--k", "2", "--methods", "exact,contour"]

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main([*self.ARGS, "--out", str(a)]) == 0
        assert cli.main([*self.ARGS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_config_omits_out_path(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "deeper" / "b.json"
        b.parent.mkdir()
        for path in (a, b):
            rc = cli.main([*self.ARGS, "--format", "json", "--out", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert "out" not in payload["config"]
        assert payload["config"]["version"]

    @pytest.mark.parametrize("argv,flags", [
        (["predict", "--family", "critical_poly", "--V", "5", "--m", "1",
          "--sigma", "0.5", "--X", "1e6", "--T", "1e6"],
         {"family", "V", "m", "sigma", "X", "T"}),
        (["moments", "--sigma", "0.5", "--m", "1", "--theta", "0.7", "--X",
          "31", "--T", "1e3", "--k", "2", "--methods", "exact,empirical"],
         {"sigma", "m", "theta", "X", "T", "k", "methods"}),
        (["tail", "--route", "poly", "--sigma", "0.8", "--m", "0", "--theta",
          "0.1", "--X", "31", "--T", "1e3", "--V", "1", "--refine", "2",
          "--count", "8"],
         {"route", "sigma", "m", "theta", "X", "T", "V", "refine", "count"}),
        (["eta", "--m", "1", "--sigma", "0.75", "--theta", "0.1", "--t",
          "100"],
         {"m", "sigma", "theta", "t"}),
    ])
    def test_json_config_keys_are_own_flags(self, tmp_path, argv, flags):
        path = tmp_path / "out.json"
        rc = cli.main([*argv, "--format", "json", "--out", str(path)])
        assert rc == 0
        config = json.loads(path.read_text())["config"]
        assert set(config) == flags | {"format", "command", "version"}
        if argv[0] == "predict":
            assert not {"route", "count", "refine", "quick"} & set(config)

    @pytest.mark.parametrize("argv", [
        ["selfcheck", "--out", "x"],
        ["selfcheck", "--quick", "--format", "json"],
        ["selfcheck", "--quick", "--tol", "c3_abs=1e-20"],
        ["predict", "--family", "strip_eta", "--sigma", "0.75", "--m", "0",
         "--V", "10", "--const", "a4=1e6"],
        ["predict", "--family", "strip_eta", "--sigma", "0.75", "--m", "0",
         "--V", "10", "--theta", "nan", "--format", "json"],
    ])
    def test_unknown_flags_exit_2(self, monkeypatch, tmp_path, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_nonfinite_exit_code(self, monkeypatch, capsys):
        def boom(args):
            raise NonFiniteOutput("non-finite value inf in output")

        monkeypatch.setitem(cli._DISPATCH, "predict", boom)
        rc = cli.main(["predict", "--family", "strip_eta", "--sigma", "0.75",
                       "--m", "0", "--V", "10"])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, monkeypatch, capsys):
        def stalled(spec, k, table):
            raise RuntimeError("I0 series did not converge; |x| too large")

        monkeypatch.setattr(cli, "contour_moment", stalled)
        assert cli.main(self.ARGS) == 4
        err = capsys.readouterr().err
        assert err == "error: I0 series did not converge; |x| too large\n"

    def test_parser_built_once_leaves_no_state(self, monkeypatch, capsys):
        # one parser serves every main call in the process; a rejected
        # argv and an explicit --theta leave nothing for the next call
        seen = []
        monkeypatch.setitem(cli._DISPATCH, "moments",
                            lambda args: seen.append(vars(args)) or 0)
        base = ["moments", "--sigma", "0.5", "--m", "1", "--X", "31"]
        runs = [[*base, "--theta", "0.7", "--k", "3", "--methods", "exact"],
                base]
        with pytest.raises(SystemExit) as exc:
            cli.main([*base, "--theta", "0.7", "--k"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        for argv in runs:
            assert cli.main(argv) == 0
        assert cli._parser() is cli._parser()
        want = []
        for argv in runs:
            args = cli._parser.__wrapped__().parse_args(argv)
            cli._parse_lists(args)
            want.append(vars(args))
        assert seen == want
        assert seen[1]["theta"] == 0.0 and seen[1]["k"] == (1, 2, 3, 4)
        assert seen[1]["methods"] == cli.METHOD_ORDER

    @pytest.mark.parametrize("argv", [
        ["moments", "--sigma", "0.5", "--m", "1", "--X", "31", "--T", "1e5",
         "--k", "1,2,3,4,6"],
        ["moments", "--sigma", "0.5", "--m", "1", "--theta", "0.7", "--X",
         "31", "--T", "4e6", "--k", "2,4,6"],
        ["eta", "--m", "0", "--sigma", "0.65", "--t", "5:400:7.5"],
        ["tail", "--route", "eta", "--sigma", "0.75", "--m", "1", "--T",
         "1e4", "--count", "16", "--V", "0.5"],
    ], ids=["k1-6", "moments_x31", "eta_walk", "eta_tail_t1e4"])
    def test_bytes_free_of_blas_thread_count(self, argv):
        # OpenBLAS splits a dot product past 10,000 terms over its threads,
        # which moves its last bits; the power sums stay under that, and
        # the eta routes take the per-t branch walk, not the s_0 block
        src = str(Path(cli.__file__).resolve().parents[1])
        outs = [subprocess.run(
            [sys.executable, "-m", "zel.cli", *argv],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": n},
            capture_output=True, check=True, timeout=120).stdout
            for n in ("1", "2")]
        assert outs[0] == outs[1]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS caps the address space on Linux")
    def test_out_of_memory_exits_2(self):
        # a 768 MB address-space cap on the child alone: zeta at t = 2e7
        # sieves to ~1.1e7 and cannot allocate its composite table
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        capped = ("import resource, runpy, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))\n"
                  "sys.argv = ['zel', 'eta', '--sigma', '0.75', '--m', '1',"
                  " '--t', '2e7']\n"
                  "runpy.run_module('zel.cli', run_name='__main__')\n")
        out = subprocess.run([sys.executable, "-c", capped], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 2, out.stderr[-2000:]
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: zel eta ran out of memory")

    def test_import_leaves_scipy_out(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, zel.cli; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out == "False\n"

    def test_import_leaves_concurrent_futures_out(self):
        # the NUFFT path imports it on first use; setup time stays flat
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, zel.cli; print('concurrent.futures' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out == "False\n"

    def test_stdout_default(self, capsys):
        rc = cli.main(["predict", "--family", "strip_eta", "--sigma", "0.75",
                       "--m", "0", "--V", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("V,family,")
