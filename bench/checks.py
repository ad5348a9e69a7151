"""Checks of each workload's outputs against values computed apart from the
program: closed forms, limit constants computed here, and a brute-force
orbit count.  Nothing is compared with a stored copy of earlier output.

Each ``check_*`` function reads a round's output directory and returns a
list of problems, each starting with the name of the check that found it.
An empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from fractions import Fraction

from workloads import CLASS_IDS, SUBGROUP_IDS, meander_series_orders

# Largest relative deviation from the limit moment allowed at the last index.
LIMIT_TOLERANCE = 0.01

SUBGROUPS = {
    "e": ("e",),
    "r2": ("e", "r2"),
    "r": ("e", "r", "r2", "r3"),
    "d1": ("e", "d1"),
    "d2": ("e", "d2"),
    "d1d2": ("e", "r2", "d1", "d2"),
    "h": ("e", "h"),
    "v": ("e", "v"),
    "hv": ("e", "r2", "h", "v"),
    "d4": ("e", "r", "r2", "r3", "h", "v", "d1", "d2"),
}


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def central(n: int) -> int:
    return math.comb(n, n // 2)


def class_count(cls: str, m: int) -> int:
    """Number of polygons of half-perimeter m in the class."""
    if m < 2:
        return 0
    if cls == "full":
        return catalan(m - 1)
    if cls == "r2":
        return central(m - 1)
    if cls == "rect":
        return m - 1
    if m % 2:
        return 0
    j = m // 2
    return {"d1": catalan(j - 1), "d2": central(m - 1),
            "d1d2": central(j - 1), "square": 1}[cls]


def rect_count(m: int, n: int) -> int:
    return sum(1 for a in range(1, m) if a * (m - a) == n)


def square_count(m: int, n: int) -> int:
    return 1 if m >= 2 and m % 2 == 0 and n == (m // 2) ** 2 else 0


def limit_constant(cls: str, k: int) -> float:
    """E[(scale * Y)^k] for the class's limit law: Airy (mean sqrt(pi),
    second moment 10/3) for full, meander area (mean (3/8) sqrt(2 pi)) for
    the half-turn and diagonal classes."""
    if cls == "full":
        return {1: math.sqrt(math.pi) / 4, 2: Fraction(10, 3) / 16}[k]
    scale = {"r2": 0.5, "d2": 0.5, "d1d2": 2.0}[cls]
    return scale * 3 / 8 * math.sqrt(2 * math.pi)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _read_csv(path, header):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or tuple(rows[0]) != tuple(header):
        raise ValueError(f"{os.path.basename(path)}: header is not {','.join(header)}")
    return rows[1:]


def parse_sqrt_scaled(text: str):
    """'p/q' or 'p/q*sqrt(N)' -> (Fraction, N)."""
    if "*sqrt(" in text:
        head, root = text.split("*sqrt(")
        return Fraction(head), int(root.rstrip(")"))
    return Fraction(text), 1


def moment_problems(tag, cls, k, rows, base_of):
    """Limit and normalization checks on report rows
    (m, factorial, power, normalized (r, root), rel_dev) sorted by m."""
    problems = []
    target = float(limit_constant(cls, k))
    devs = []
    for m, _, power, (r, root), rel_dev in rows:
        # normalized = power / base**(3k/2), compared squared to stay exact
        if r < 0 or r * r * root * Fraction(base_of(m)) ** (3 * k) != power * power:
            problems.append(f"{tag}.normalization: {cls} k={k} m={m}")
        dev = float(r) * math.sqrt(root) / target - 1
        devs.append(abs(dev))
        if abs(float(rel_dev) - dev) > 1e-9:
            problems.append(f"{tag}.rel_dev: {cls} k={k} m={m} reports {float(rel_dev)}, not {dev}")
    if any(b >= a for a, b in zip(devs, devs[1:])) or not devs or devs[-1] > LIMIT_TOLERANCE:
        problems.append(f"{tag}.limit: {cls} k={k} deviations {devs} do not shrink "
                        f"below {LIMIT_TOLERANCE}")
    return problems


# ---------------------------------------------------------------------------
# airy-moments
# ---------------------------------------------------------------------------

MOMENT_HEADER = ("class", "k", "m", "factorial_moment", "power_moment",
                 "normalized", "limit", "rel_dev", "digits")


def check_airy(spec, out) -> list:
    rows = _read_csv(os.path.join(out, "moments.csv"), MOMENT_HEADER)
    table = {}
    for cls, k, m, fact, power, normalized, _, rel_dev, _ in rows:
        if cls != "full":
            return [f"airy.rows: unexpected class {cls}"]
        table[int(k), int(m)] = (Fraction(fact), Fraction(power),
                                 parse_sqrt_scaled(normalized), Fraction(rel_dev))
    want = {(k, m) for k in spec["k"] for m in spec["m"]}
    if set(table) != want:
        return [f"airy.rows: rows for {sorted(set(table) ^ want)} missing or extra"]
    problems = []
    for m in spec["m"]:
        if table[1, m][0] != Fraction(4 ** (m - 2), catalan(m - 1)):
            problems.append(f"airy.mean_closed_form: m={m}")
        if table[1, m][1] != table[1, m][0]:
            problems.append(f"airy.power_moment: k=1 m={m}")
        if 2 in spec["k"] and table[2, m][1] != table[2, m][0] + table[1, m][0]:
            problems.append(f"airy.power_moment: k=2 m={m}")
    for k in spec["k"]:
        series = [(m, *table[k, m]) for m in spec["m"]]
        problems += moment_problems("airy", "full", k, series, lambda m: m)
    return problems


# ---------------------------------------------------------------------------
# meander-moments
# ---------------------------------------------------------------------------

def _half_perimeter(cls, m):
    return m if cls == "r2" else 2 * m


def _scaling_base(cls, m):
    return 2 * m if cls == "d2" else m


def jet_series_problems(cls, slots):
    """Slot 0 against the class counts, slot 1 against its bounds and, for
    full and d1, against its closed form."""
    problems = []
    for m, jet in enumerate(slots):
        s0, s1 = jet
        if s0 != class_count(cls, m):
            problems.append(f"meander.counts: {cls} slot 0 at m={m}")
        if not 0 <= s1 <= (m * m // 4) * s0:
            problems.append(f"meander.slot_bounds: {cls} slot 1 at m={m}")
        if m >= 2 and cls == "full" and s1 != 4 ** (m - 2):
            problems.append(f"meander.area_sum: full slot 1 at m={m}")
        if m >= 2 and m % 2 == 0 and cls == "d1" and s1 != 4 ** (m // 2 - 1):
            problems.append(f"meander.area_sum: d1 slot 1 at m={m}")
    return problems


def check_meander(spec, out) -> list:
    problems = []
    series = {}
    for cls, order in meander_series_orders(spec).items():
        with open(os.path.join(out, f"series_{cls}.json")) as handle:
            slots = [tuple(int(v, 16) for v in jet) for jet in json.load(handle)]
        if len(slots) != order + 1 or any(len(jet) != 2 for jet in slots):
            problems.append(f"meander.series_shape: {cls}")
            continue
        series[cls] = slots
        problems += jet_series_problems(cls, slots)
    with open(os.path.join(out, "reports.json")) as handle:
        reports = json.load(handle)
    if sorted(reports) != sorted(spec["classes"]):
        return problems + [f"meander.rows: reports for {sorted(reports)}"]
    for cls in spec["classes"]:
        rows = []
        for m, fact, power, rational, root, rel_dev in reports[cls]:
            rows.append((m, Fraction(fact), Fraction(power),
                         (Fraction(rational), int(root)), Fraction(rel_dev)))
        if [row[0] for row in rows] != list(spec["m"]):
            problems.append(f"meander.rows: {cls} indices")
            continue
        for m, fact, power, _, _ in rows:
            slots = series.get(cls)
            h = _half_perimeter(cls, m)
            if slots is None or fact != Fraction(slots[h][1], slots[h][0]):
                problems.append(f"meander.mean_from_series: {cls} m={m}")
            if power != fact:
                problems.append(f"meander.power_moment: {cls} m={m}")
        problems += moment_problems("meander", cls, 1, rows,
                                    lambda m, c=cls: _scaling_base(c, m))
    return problems


# ---------------------------------------------------------------------------
# exact-tables
# ---------------------------------------------------------------------------

def _table(rows, name, problems):
    """{(m, n): count} from (name, m, n, count) rows; counts must be positive."""
    out = {}
    for label, m, n, v in rows:
        if label != name:
            problems.append(f"exact.rows: row labelled {label} in the {name} table")
            continue
        key = (int(m), int(n))
        if key in out or int(v) <= 0:
            problems.append(f"exact.rows: {name} at {key} repeated or not positive")
        out[key] = int(v)
    return out


def staircase_polygons(max_m: int):
    """Every staircase polygon of half-perimeter <= max_m as (m, area, cells),
    grown column by column: each new column starts no lower than the last
    one's bottom and below its top, and ends no lower than its top."""
    found = []

    def grow(cols):
        width, height = len(cols), cols[-1][1]
        cells = frozenset((x, y) for x, (b, t) in enumerate(cols) for y in range(b, t))
        found.append((width + height, len(cells), cells))
        b0, t0 = cols[-1]
        for b in range(b0, t0):
            for t in range(t0, max_m - width):
                grow(cols + [(b, t)])

    for t in range(1, max_m):
        grow([(0, t)])
    return found


def brute_orbit_counts(subgroup, polygons):
    """{(m, n): orbits} of the subgroup's images of the given polygons, one
    canonical cell set per orbit."""
    from staircase.polygons import transform_cells

    reps = {}
    for m, n, cells in polygons:
        images = {tuple(sorted(transform_cells(g, cells))) for g in SUBGROUPS[subgroup]}
        reps.setdefault((m, n), set()).add(min(images))
    return {key: len(r) for key, r in reps.items()}


def class_table_problems(cls, table, order):
    problems = []
    for m in range(order + 1):
        counts = {n: v for (mm, n), v in table.items() if mm == m}
        if sum(counts.values()) != class_count(cls, m):
            problems.append(f"exact.counts: {cls} at m={m}")
        if any(not m - 1 <= n <= m * m // 4 for n in counts):
            problems.append(f"exact.area_range: {cls} at m={m}")
        if cls == "full" and m >= 2 and sum(n * v for n, v in counts.items()) != 4 ** (m - 2):
            problems.append(f"exact.area_sum: full at m={m}")
        closed = {"rect": rect_count, "square": square_count}.get(cls)
        if closed is not None:
            want = {n: closed(m, n) for n in range(m * m // 4 + 1) if closed(m, n)}
            if counts != want:
                problems.append(f"exact.closed_form: {cls} at m={m}")
    if any(m > order for m, _ in table):
        problems.append(f"exact.counts: {cls} has rows beyond order {order}")
    return problems


def check_exact(spec, out) -> list:
    problems = []
    order, max_m = spec["order"], spec["max_m"]
    enum_rows = _read_csv(os.path.join(out, "enumerate.csv"), ("class", "m", "n", "count"))
    enumerated = {cls: {} for cls in CLASS_IDS}
    for cls, m, n, v in enum_rows:
        if cls not in enumerated:
            problems.append(f"exact.rows: unknown class {cls} in enumerate.csv")
            continue
        enumerated[cls][int(m), int(n)] = int(v)
    series = {}
    for cls in CLASS_IDS:
        rows = _read_csv(os.path.join(out, f"series_{cls}.csv"),
                         ("class", "m", "n", "coefficient"))
        series[cls] = _table(rows, cls, problems)
        problems += class_table_problems(cls, series[cls], order)
        low = {key: v for key, v in series[cls].items() if key[0] <= max_m}
        if low != enumerated[cls]:
            problems.append(f"exact.enumeration: {cls} series and enumeration differ")
    polygons = staircase_polygons(spec["orbit_check_m"])
    for sg in SUBGROUP_IDS:
        rows = _read_csv(os.path.join(out, f"orbits_{sg}.csv"), ("subgroup", "m", "n", "orbit_count"))
        table = _table(rows, sg, problems)
        if any(m > order for m, _ in table):
            problems.append(f"exact.orbits: {sg} has rows beyond order {order}")
        if sg == "e" and table != series["full"]:
            problems.append("exact.orbits: trivial-subgroup orbits differ from the full class")
        small = {key: v for key, v in table.items() if key[0] <= spec["orbit_check_m"]}
        if small != brute_orbit_counts(sg, polygons):
            problems.append(f"exact.orbits: {sg} differs from the brute-force orbit count")
    return problems


CHECKS = {"airy-moments": check_airy, "meander-moments": check_meander,
          "exact-tables": check_exact}
