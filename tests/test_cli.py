import csv
import io
import os
import re
import subprocess
import sys

import pytest

import staircase
from staircase import feq
from staircase.cli import main
from staircase import series as series_module
from staircase.series import DeltaJet, ExactRing, XSeries
from staircase.slots import ClosedForm
from staircase.surds import Surd


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestSeriesCommand:
    def test_square_series_stdout(self, capsys):
        code, out, err = run(["series", "--class", "square", "--order", "8",
                              "--mode", "exact"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["class", "m", "n", "coefficient"]
        assert rows[1:] == [["square", "2", "1", "1"], ["square", "4", "4", "1"],
                            ["square", "6", "9", "1"], ["square", "8", "16", "1"]]

    def test_jet_mode_file(self, tmp_path, capsys):
        out_file = tmp_path / "full.csv"
        code, _, _ = run(["series", "--class", "full", "--order", "6",
                          "--mode", "jet", "--jet", "1", "--out", str(out_file)], capsys)
        assert code == 0
        rows = read_csv(out_file)
        assert rows[0] == ["class", "m", "k", "jet_coefficient"]
        # counts 1, 2, 5, 14, 42 at q = 1 (slot 0)
        slot0 = [r for r in rows[1:] if r[2] == "0"]
        assert [r[3] for r in slot0] == ["0", "0", "1", "2", "5", "14", "42"]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        out_file = tmp_path / "r2.csv"
        argv = ["series", "--class", "r2", "--order", "10", "--out", str(out_file)]
        assert run(argv, capsys)[0] == 0
        first = out_file.read_bytes()
        assert run(argv, capsys)[0] == 0
        assert out_file.read_bytes() == first


class TestEnumerateCommand:
    def test_matches_series(self, tmp_path, capsys):
        out_file = tmp_path / "counts.csv"
        code, _, _ = run(["enumerate", "--max-m", "6", "--out", str(out_file)], capsys)
        assert code == 0
        rows = read_csv(out_file)
        assert rows[0] == ["class", "m", "n", "count"]
        assert ["full", "2", "1", "1"] in rows
        assert ["square", "6", "9", "1"] in rows

    def test_bounds_error(self, capsys):
        code, _, err = run(["enumerate", "--max-m", "60"], capsys)
        assert code == 1
        assert "error" in err


class TestLimitsCommand:
    def test_airy_moments(self, capsys):
        code, out, _ = run(["limits", "--law", "airy", "--k", "3",
                            "--digits", "20"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["law", "k", "exact", "decimal", "digits"]
        assert rows[2][2] == "1*sqrtpi"
        assert rows[2][3].startswith("1.7724538509")
        assert rows[3][2] == "10/3"


class TestLimitsCoefficients:
    def test_sequence_table(self, capsys):
        code, out, _ = run(["limits", "--coefficients", "--k", "1",
                            "--digits", "10"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["sequence", "k", "exact", "decimal", "digits"]
        table = {(r[0], r[1]): r[2] for r in rows[1:]}
        assert table[("airy_coeff", "0")] == "-1"
        assert table[("meander_coeff", "1")] == "3/4"
        assert table[("singular_full", "1")] == "1/16"
        assert table[("singular_r2", "0")] == "1/2*sqrt2"

    def test_law_required_without_coefficients(self, capsys):
        code, _, err = run(["limits", "--k", "3"], capsys)
        assert code == 1
        assert "pick --law" in err


class TestMomentsCommand:
    def test_rect_report(self, tmp_path, capsys):
        out_file = tmp_path / "rect.csv"
        code, _, _ = run(["moments", "--class", "rect", "--k", "1",
                          "--m", "10,100", "--out", str(out_file)], capsys)
        assert code == 0
        rows = read_csv(out_file)
        assert rows[0][:3] == ["class", "k", "m"]
        assert rows[1][0] == "rect" and rows[1][2] == "10"
        assert rows[1][5] == "11/15"  # 2/3 + 2/30
        assert rows[1][6] == "2/3"

    def test_range_syntax(self, capsys):
        code, out, _ = run(["moments", "--class", "square", "--k", "1",
                            "--m", "1:4"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 5
        assert {r[5] for r in rows[1:]} == {"1"}

    @pytest.mark.parametrize("command", ["moments", "compare"])
    def test_one_solve_serves_every_k(self, command, tmp_path, capsys):
        feq.clear_cache()
        code, _, _ = run([command, "--class", "full", "--k", "1,2", "--m", "4,16",
                          "--out", str(tmp_path / "report")], capsys)
        assert code == 0
        assert [key for key in feq._SOLVE_CACHE if key[0] == "full"] == [("full", ("jet", 2))]


class TestOrbitsCommand:
    def test_counts(self, capsys):
        code, out, _ = run(["orbits", "--subgroup", "d4", "--order", "6"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["subgroup", "m", "n", "orbit_count"]
        assert rows[1] == ["d4", "2", "1", "1"]

    def test_ratio_table(self, capsys):
        code, out, _ = run(["orbits", "--subgroup", "d4", "--alpha", "3",
                            "--m", "20,24"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["subgroup", "alpha", "m", "ratio_num", "ratio_den",
                           "ratio_decimal", "digits"]
        assert rows[1][:3] == ["d4", "3", "20"]

    def test_ratio_requires_indices(self, capsys):
        code, _, err = run(["orbits", "--subgroup", "d4", "--alpha", "3"], capsys)
        assert code == 1
        assert "needs --m" in err


class TestCompareCommand:
    def test_writes_report_and_plot_data(self, tmp_path, capsys):
        base = tmp_path / "report"
        code, _, _ = run(["compare", "--class", "full", "--k", "1,2",
                          "--m", "4,16,36", "--out", str(base)], capsys)
        assert code == 0
        rows = read_csv(str(base) + ".csv")
        assert len(rows) == 7  # header + 3 rows per k
        for k in (1, 2):
            dat = (tmp_path / f"report_full_k{k}.dat").read_text().splitlines()
            assert len(dat) == 3
            assert dat[0].split()[0] == "4"
            float(dat[0].split()[1])


class TestFailedChecks:
    def test_jet_slot_over_bound_exits_2(self, monkeypatch, capsys):
        # one polygon of half-perimeter 2 has area 1, so slot 1 (the area
        # sum) is at most 1; this equation claims 2
        def build(u, deps, ring):
            return feq._Lin(ring, {2: DeltaJet((1, 2))}, [])

        monkeypatch.setitem(feq.CLASS_EQUATIONS, "square",
                            feq.ClassEquation("square", (), 2, build))
        feq.clear_cache()
        code, _, err = run(["series", "--class", "square", "--order", "4",
                            "--mode", "jet", "--jet", "1"], capsys)
        assert code == 2
        assert "jet slot 1 out of range in class square at x^2" in err

    def test_corrupted_closed_form_exits_2(self, monkeypatch, capsys):
        # F_0 of the full class is (1 - 2x - sqrt(1 - 4x))/2; adding x^3 to
        # the numerator makes its x^3 coefficient odd, so the division by 2
        # leaves a remainder
        real = feq._build_closed_form

        def corrupted(class_id, jet_order):
            form = real(class_id, jet_order)
            f0 = form.slots[0]
            bad = Surd(f0.p + (0,) * (4 - len(f0.p)) + (1,), f0.q, f0.d, f0.r)
            return ClosedForm(class_id, (bad,) + form.slots[1:])

        monkeypatch.setattr(feq, "_build_closed_form", corrupted)
        feq.clear_cache()
        code, _, err = run(["series", "--class", "full", "--order", "6",
                            "--mode", "jet", "--jet", "1"], capsys)
        feq.clear_cache()
        assert code == 2
        assert "not an integer" in err


    def test_packing_width_too_narrow_exits_2(self, monkeypatch, capsys):
        # 16-bit slots hold coefficient sums below 2**15; the full class
        # counts 58786 polygons at x^12
        monkeypatch.setattr(feq, "_solve_ring", lambda class_id, order: ExactRing(16))
        feq.clear_cache()
        code, _, err = run(["series", "--class", "full", "--order", "14",
                            "--mode", "exact"], capsys)
        feq.clear_cache()
        assert code == 2
        assert "overflows 16-bit slots" in err

    def test_corrupted_packed_coefficient_exits_2(self, monkeypatch, capsys):
        # one more polygon at an area that occurs: the count stays positive
        # and in range, so only the count at q = 1 against the closed form
        # can see it
        real = feq._solve_lazy

        def corrupted(class_id, order, ring, solve_dep):
            solved = real(class_id, order, ring, solve_dep)
            c = solved.coeffs[6]
            d = min(c.c)
            bad = series_module._poly(c.v + (1 << (c.w * (d - c.lo))), c.lo, c.w, c.norm + 1)
            return XSeries(ring, order, solved.coeffs[:6] + (bad,) + solved.coeffs[7:])

        monkeypatch.setattr(feq, "_solve_lazy", corrupted)
        feq.clear_cache()
        code, _, err = run(["series", "--class", "full", "--order", "8",
                            "--mode", "exact"], capsys)
        feq.clear_cache()
        assert code == 2
        assert "class full counts 43 polygons at x^6, its closed form 42" in err


class TestUsageErrors:
    def test_unknown_class(self, capsys):
        code, _, err = run(["series", "--class", "pentagon", "--order", "8"], capsys)
        assert code == 1

    def test_bad_order(self, capsys):
        code, _, err = run(["series", "--class", "full", "--order", "1"], capsys)
        assert code == 1
        assert "error" in err

    def test_bad_alpha(self, capsys):
        code, _, err = run(["orbits", "--subgroup", "d4", "--alpha", "x",
                            "--m", "4"], capsys)
        assert code == 1

    def test_missing_command(self, capsys):
        assert run([], capsys)[0] == 1

    def test_reversed_range(self, capsys):
        code, out, err = run(["moments", "--class", "full", "--k", "1",
                              "--m", "16,8:4"], capsys)
        assert code == 1
        assert out == ""
        assert "reversed range '8:4'" in err


class TestConsoleEntryPoint:
    """The installed ``staircase`` script calls ``console_main``; so does
    ``python -m staircase.cli``."""

    def launch(self, *argv):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(staircase.__file__)))
        return subprocess.run([sys.executable, "-m", "staircase.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_success_exits_0(self):
        done = self.launch("series", "--class", "square", "--order", "6")
        assert done.returncode == 0, done.stderr
        rows = list(csv.reader(io.StringIO(done.stdout)))
        assert rows[0] == ["class", "m", "n", "coefficient"]
        assert rows[1:] == [["square", "2", "1", "1"], ["square", "4", "4", "1"],
                            ["square", "6", "9", "1"]]

    def test_usage_error_exits_1(self):
        done = self.launch("series", "--class", "full", "--order", "1")
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")


class TestSelftest:
    def test_passes_and_prints_per_check_lines(self, capsys):
        code, out, _ = run(["selftest", "--max-m", "8"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert sum(1 for line in lines if line.startswith("ok: ")) == 8
        assert lines[-1] == "all checks passed"
        # each check reports its own time
        assert all(re.fullmatch(r"ok: .+ \(\d+\.\d\d s\)", line) for line in lines[:-1])

    def test_bound_validated(self, capsys):
        assert run(["selftest", "--max-m", "40"], capsys)[0] == 1
