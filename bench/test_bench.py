"""Tests of the benchmark itself: every output check fires on a corrupted
output, the tracer counts what it claims to, and the declared metrics match
what the benchmark prints.

    python3 -m pytest bench
"""

import csv
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from staircase import feq  # noqa: E402
from staircase.polygons import enumerate_counts  # noqa: E402
from staircase.series import exact_ring  # noqa: E402

SMALL = {
    "airy-moments": {"k": (1, 2), "m": (32, 64, 128)},
    "meander-moments": {"classes": ("r2", "d2", "d1d2"), "m": (32, 64, 128)},
    "exact-tables": {"max_m": 9, "order": 14, "orbit_check_m": 7},
}


def _outputs(workload, directory):
    feq.clear_cache()
    flags, state = workloads.run(workload, SMALL[workload], str(directory))
    assert all(flags)
    workloads.record(workload, SMALL[workload], str(directory), state)
    return str(directory)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    return {w: _outputs(w, tmp_path_factory.mktemp(w)) for w in SMALL}


@pytest.fixture
def copy_of(pristine, tmp_path):
    def make(workload):
        target = tmp_path / workload
        shutil.copytree(pristine[workload], target)
        return str(target)
    return make


def _problems(workload, out):
    return checks.CHECKS[workload](SMALL[workload], out)


def _edit_csv(path, edit):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def _edit_json(path, edit):
    with open(path) as handle:
        data = json.load(handle)
    edit(data)
    with open(path, "w") as handle:
        json.dump(data, handle)


def _fires(workload, out, name):
    problems = _problems(workload, out)
    assert any(p.startswith(name + ":") for p in problems), problems


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_pristine_outputs_pass(pristine, workload):
    assert _problems(workload, pristine[workload]) == []


# -- closed forms the checks rest on -------------------------------------------

def test_class_counts_match_brute_force():
    table = enumerate_counts(12)
    for cls in workloads.CLASS_IDS:
        for m in range(2, 13):
            assert table.total(cls, m) == checks.class_count(cls, m), (cls, m)


def test_polygon_generator_gives_catalan_counts():
    polygons = checks.staircase_polygons(9)
    for m in range(2, 10):
        assert sum(1 for p in polygons if p[0] == m) == checks.catalan(m - 1)


# -- airy-moments ----------------------------------------------------------------

def _airy_cell(column, k, m, change):
    index = checks.MOMENT_HEADER.index(column)

    def edit(rows):
        for row in rows[1:]:
            if row[1] == str(k) and row[2] == str(m):
                row[index] = change(row[index])
    return edit


@pytest.mark.parametrize("column, k, change, name", [
    ("factorial_moment", 1, lambda v: str(Fraction(v) + 1), "airy.mean_closed_form"),
    ("power_moment", 2, lambda v: str(Fraction(v) + 1), "airy.power_moment"),
    ("power_moment", 2, lambda v: str(Fraction(v) + 1), "airy.normalization"),
    ("normalized", 1, lambda v: v.replace("/", "1/", 1), "airy.normalization"),
    ("rel_dev", 2, lambda v: "0.5", "airy.rel_dev"),
])
def test_airy_checks_fire(copy_of, column, k, change, name):
    out = copy_of("airy-moments")
    _edit_csv(os.path.join(out, "moments.csv"), _airy_cell(column, k, 64, change))
    _fires("airy-moments", out, name)


def test_airy_limit_check_fires(copy_of):
    out = copy_of("airy-moments")
    scale = lambda v: str(Fraction(v.split("*")[0]) * Fraction(3, 2)) + v[len(v.split("*")[0]):]
    _edit_csv(os.path.join(out, "moments.csv"), _airy_cell("normalized", 1, 128, scale))
    _fires("airy-moments", out, "airy.limit")


def test_airy_missing_row_fires(copy_of):
    out = copy_of("airy-moments")
    _edit_csv(os.path.join(out, "moments.csv"), lambda rows: rows.pop())
    _fires("airy-moments", out, "airy.rows")


# -- meander-moments -------------------------------------------------------------

def _slot(cls, m, slot, change):
    def edit(data):
        data[m][slot] = format(change(int(data[m][slot], 16)), "x")
    return f"series_{cls}.json", edit


@pytest.mark.parametrize("target, name", [
    (_slot("r2", 40, 0, lambda v: v + 1), "meander.counts"),
    (_slot("d1d2", 40, 0, lambda v: v - 1), "meander.counts"),
    (_slot("d2", 40, 1, lambda v: -1), "meander.slot_bounds"),
    (_slot("d2", 40, 1, lambda v: v * 1000), "meander.slot_bounds"),
    (_slot("full", 30, 1, lambda v: v + 2), "meander.area_sum"),
    (_slot("d1", 30, 1, lambda v: v + 2), "meander.area_sum"),
    (_slot("r2", 64, 1, lambda v: v + 1), "meander.mean_from_series"),
])
def test_meander_series_checks_fire(copy_of, target, name):
    out = copy_of("meander-moments")
    filename, edit = target
    _edit_json(os.path.join(out, filename), edit)
    _fires("meander-moments", out, name)


def _report(cls, index, field, change):
    def edit(data):
        row = data[cls][index]
        row[field] = change(row[field])
    return edit


@pytest.mark.parametrize("edit, name", [
    (_report("d2", 1, 1, lambda v: str(Fraction(v) * 2)), "meander.mean_from_series"),
    (_report("d2", 1, 2, lambda v: str(Fraction(v) * 2)), "meander.power_moment"),
    (_report("r2", 1, 3, lambda v: str(Fraction(v) * 2)), "meander.normalization"),
    (_report("d1d2", 2, 3, lambda v: str(Fraction(v) * 2)), "meander.limit"),
    (_report("r2", 0, 5, lambda v: "1/2"), "meander.rel_dev"),
])
def test_meander_report_checks_fire(copy_of, edit, name):
    out = copy_of("meander-moments")
    _edit_json(os.path.join(out, "reports.json"), edit)
    _fires("meander-moments", out, name)


# -- exact-tables ----------------------------------------------------------------

def _rows_at(rows, m):
    return [row for row in rows[1:] if row[1] == str(m)]


def _shift_count(m, delta_first, delta_last):
    def edit(rows):
        at = _rows_at(rows, m)
        at[0][3] = str(int(at[0][3]) + delta_first)
        at[-1][3] = str(int(at[-1][3]) + delta_last)
    return edit


def _add_row(label, m, n, count):
    return lambda rows: rows.append([label, str(m), str(n), str(count)])


@pytest.mark.parametrize("filename, edit, name", [
    ("series_full.csv", _shift_count(8, 1, 0), "exact.counts"),
    ("series_full.csv", _shift_count(12, 1, -1), "exact.area_sum"),
    ("series_full.csv", _shift_count(8, 1, -1), "exact.enumeration"),
    ("series_r2.csv", _add_row("r2", 6, 10, 1), "exact.area_range"),
    ("series_rect.csv", _shift_count(12, 1, -1), "exact.closed_form"),
    ("series_square.csv", _add_row("square", 10, 24, 1), "exact.closed_form"),
    ("series_d1.csv", _add_row("d1", 13, 20, 1), "exact.counts"),
    ("enumerate.csv", lambda rows: rows[5].__setitem__(3, str(int(rows[5][3]) + 1)),
     "exact.enumeration"),
    ("orbits_d4.csv", _shift_count(6, 1, 0), "exact.orbits"),
    ("orbits_hv.csv", _shift_count(7, 0, -1), "exact.orbits"),
    ("orbits_e.csv", _shift_count(14, 1, 0), "exact.orbits"),
    ("orbits_r.csv", _add_row("r", 12, 30, 0), "exact.rows"),
])
def test_exact_checks_fire(copy_of, filename, edit, name):
    out = copy_of("exact-tables")
    _edit_csv(os.path.join(out, filename), edit)
    _fires("exact-tables", out, name)


# -- tracer ----------------------------------------------------------------------

def test_tracer_counts_solves_hits_and_restores():
    original = feq.solve_series
    feq.clear_cache()
    t = tracer.Tracer()
    t.install()
    try:
        feq.solve_series("r2", 12, exact_ring())
        feq.solve_series("full", 6, exact_ring())
    finally:
        t.uninstall()
    assert feq.solve_series is original
    metrics = t.metrics()
    # r2 solves full as a prerequisite; the later full call is a hit
    assert metrics["feq.solve_series.calls"] == 3
    assert metrics["feq.solve_series.solves"] == 2
    assert metrics["feq.solve_series.hits"] == 1
    assert metrics["feq.coeffs_solved"] == 13 + 8
    assert metrics["series.ExactRing.conv_into.calls"] > 0
    assert metrics["series.ExactRing.conv_into.monomial_products"] > 0
    assert metrics["series.JetRing.conv_into.calls"] == 0
    total, own = t.layer_times()
    assert all(v >= 0 for v in own.values())
    assert own["feq.solve_series"] <= total["feq.solve_series"]


# -- the benchmark's declaration and entry point ---------------------------------

def test_declared_metrics_match_the_printed_ones():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.SPECS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("tmp", "traces", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "airy-moments",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
