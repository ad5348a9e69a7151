"""Command-line interface for the staircase polygon toolkit.

Usage examples:

    staircase enumerate --max-m 10 --out counts.csv
    staircase series --class square --order 8 --mode exact
    staircase series --class full --order 40 --mode jet --jet 2 --out full.csv
    staircase moments --class rect --k 1,2 --m 10,100,1000 --out rect.csv
    staircase limits --law airy --k 3 --digits 20
    staircase orbits --subgroup d4 --order 20 --out orbits.csv
    staircase orbits --subgroup d4 --alpha 3 --m 20:40 --out ratio.csv
    staircase compare --class full --k 1 --m 16,64,256 --out full_report
    staircase selftest --max-m 10

Every table is CSV with a header row; plot data files are two plain
whitespace-separated columns.  Exit status: 0 on success, 1 on usage errors,
2 when an internal consistency check fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import tempfile
import time
from fractions import Fraction

from . import feq, laws, moments, orbits, polygons
from .radicals import RadicalConstant
from .series import exact_ring, jet_ring


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_int_list(text: str) -> list:
    """Comma-separated integers; 'a:b' with a <= b expands to the inclusive
    range."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ":" in piece:
            lo, hi = (int(end) for end in piece.split(":", 1))
            if hi < lo:
                raise _UsageError(f"reversed range {piece!r} in {text!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(piece))
    if not out:
        raise _UsageError(f"empty integer list: {text!r}")
    return out


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"not a rational number: {text!r} ({exc})") from None


def _write_csv(path, header, rows):
    """To stdout, or atomically (temp file + rename) so reruns are
    all-or-nothing."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    if path is None:
        sys.stdout.write(buf.getvalue())
    else:
        _replace_file(path, buf.getvalue())


def _write_plot(path, rows):
    text = "".join(f"{m} {value}\n" for m, value in rows)
    _replace_file(path, text)


def _replace_file(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-staircase-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _ring_for(args):
    if args.mode == "exact":
        return exact_ring()
    return jet_ring(args.jet)


def build_parser() -> _Parser:
    parser = _Parser(prog="staircase",
                     description="Exact series and area statistics of staircase polygon symmetry classes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="brute-force counts by class, half-perimeter and area")
    p.add_argument("--max-m", type=int, default=10, help="largest half-perimeter (2..16)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("series", help="solve a class's functional equation")
    p.add_argument("--class", dest="class_id", required=True, choices=feq.CLASS_IDS)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "jet"), default="exact")
    p.add_argument("--jet", type=int, default=2, help="jet truncation order K (jet mode)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("moments", help="finite-size area moments with limit comparison")
    p.add_argument("--class", dest="class_id", required=True, choices=feq.CLASS_IDS)
    p.add_argument("--k", default="1", help="moment orders, e.g. 1,2")
    p.add_argument("--m", required=True,
                   help="indices, e.g. 16,64,256 or 8:20; counted in the class's "
                        "own convention (quarter-perimeter for d1, d2, d1d2, square)")
    p.add_argument("--digits", type=int, default=15)
    p.add_argument("--out", default=None)

    p = sub.add_parser("limits", help="exact limit-law moments")
    p.add_argument("--law", default=None, choices=laws.LAW_KINDS)
    p.add_argument("--k", type=int, default=8, help="largest moment order")
    p.add_argument("--digits", type=int, default=20)
    p.add_argument("--coefficients", action="store_true",
                   help="emit the law and singular coefficient sequences instead")
    p.add_argument("--out", default=None)

    p = sub.add_parser("orbits", help="orbit counts per subgroup, or fixed/total ratio tables")
    p.add_argument("--subgroup", required=True, choices=orbits.SUBGROUP_IDS)
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--mode", choices=("exact", "jet"), default="exact")
    p.add_argument("--jet", type=int, default=0)
    p.add_argument("--alpha", default=None, help="emit the m^alpha r_m/p_m table instead")
    p.add_argument("--m", default=None, help="indices for the ratio table")
    p.add_argument("--digits", type=int, default=15)
    p.add_argument("--out", default=None)

    p = sub.add_parser("compare", help="moment report plus plot-ready data files")
    p.add_argument("--class", dest="class_id", required=True, choices=feq.CLASS_IDS)
    p.add_argument("--k", default="1")
    p.add_argument("--m", required=True)
    p.add_argument("--digits", type=int, default=15)
    p.add_argument("--out", required=True, help="base path; writes BASE.csv and BASE_<class>_k<k>.dat")

    p = sub.add_parser("selftest", help="run the internal consistency suites")
    p.add_argument("--max-m", type=int, default=12)

    return parser


MOMENT_HEADER = ("class", "k", "m", "factorial_moment", "power_moment",
                 "normalized", "limit", "rel_dev", "digits")


def cmd_enumerate(args) -> int:
    table = polygons.enumerate_counts(args.max_m)
    _write_csv(args.out, ("class", "m", "n", "count"), table.rows())
    return 0


def cmd_series(args) -> int:
    if args.order < 2:
        raise _UsageError("--order must be >= 2")
    if args.jet < 0:
        raise _UsageError("--jet must be >= 0")
    series = feq.solve_series(args.class_id, args.order, _ring_for(args))
    if args.mode == "exact":
        header = ("class", "m", "n", "coefficient")
    else:
        header = ("class", "m", "k", "jet_coefficient")
    _write_csv(args.out, header, feq.series_rows(args.class_id, series))
    return 0


def _moment_reports(args) -> tuple:
    """The convergence reports for each --k order, all read off one solve at
    the largest order, and their CSV rows."""
    ks = _parse_int_list(args.k)
    ms = _parse_int_list(args.m)
    reports = [moments.convergence_report(args.class_id, k, ms, jet_order=max(ks))
               for k in ks]
    return reports, [row for report in reports for row in report.csv_rows(args.digits)]


def cmd_moments(args) -> int:
    _write_csv(args.out, MOMENT_HEADER, _moment_reports(args)[1])
    return 0


def cmd_limits(args) -> int:
    if args.k < 0:
        raise _UsageError("--k must be >= 0")
    if args.coefficients:
        rows = laws.coefficient_rows(args.k, args.digits)
        _write_csv(args.out, ("sequence", "k", "exact", "decimal", "digits"), rows)
        return 0
    if args.law is None:
        raise _UsageError("pick --law, or --coefficients for the sequence tables")
    rows = laws.law_rows(args.law, args.k, args.digits)
    _write_csv(args.out, ("law", "k", "exact", "decimal", "digits"), rows)
    return 0


def cmd_orbits(args) -> int:
    if args.alpha is not None:
        if args.m is None:
            raise _UsageError("--alpha needs --m with the table indices")
        alpha = _parse_fraction(args.alpha)
        ms = _parse_int_list(args.m)
        rows = orbits.ratio_rows(args.subgroup, alpha, ms, args.digits)
        _write_csv(args.out, ("subgroup", "alpha", "m", "ratio_num", "ratio_den",
                              "ratio_decimal", "digits"), rows)
        return 0
    if args.order < 2:
        raise _UsageError("--order must be >= 2")
    series = orbits.orbit_series(args.subgroup, args.order, _ring_for(args))
    if args.mode == "exact":
        header = ("subgroup", "m", "n", "orbit_count")
    else:
        header = ("subgroup", "m", "k", "jet_coefficient")
    _write_csv(args.out, header, feq.series_rows(args.subgroup, series))
    return 0


def cmd_compare(args) -> int:
    reports, rows = _moment_reports(args)
    for report in reports:
        _write_plot(f"{args.out}_{args.class_id}_k{report.k}.dat", report.plot_rows(args.digits))
    _write_csv(f"{args.out}.csv", MOMENT_HEADER, rows)
    return 0


def _selftest_checks(max_m: int):
    def oracle_equivalence():
        table = polygons.enumerate_counts(max_m)
        ring = exact_ring()
        for cls in feq.CLASS_IDS:
            series = feq.solve_series(cls, max_m, ring)
            for m in range(2, max_m + 1):
                if dict(series.coeffs[m].c) != table.class_slice(cls, m):
                    return f"class {cls} differs from enumeration at m={m}"
        return None

    def catalan_counts():
        series = feq.solve_series("full", 24, jet_ring(0))
        values = series.values_at_q1()
        for m in range(2, 25):
            if values[m] != feq.catalan(m - 1):
                return f"half-perimeter count at m={m} is not Catalan"
        return None

    def closed_forms():
        ring = exact_ring()
        for cls in ("square", "rect"):
            series = feq.solve_series(cls, 30, ring)
            for m in range(2, 31):
                for n, v in series.coeffs[m].c.items():
                    if feq.closed_form_coefficient(cls, m, n) != v:
                        return f"{cls} series disagrees with closed form at ({m},{n})"
        return None

    def balance_identities():
        for k in range(13):
            if laws.singular_coeff_full(k) != Fraction(1, 2 ** (2 * k + 1)) * laws.airy_coeff(k):
                return f"full-class singular coefficient mismatch at k={k}"
            expected = laws.meander_coeff(k)
            got = laws.singular_coeff_r2(k)
            if got != RadicalConstant(expected, -(3 * k + 1), 0):
                return f"r2 singular coefficient mismatch at k={k}"
        # the same numbers, read off the solved series at their singularities
        full, r2 = feq.closed_form("full", 4), feq.closed_form("r2", 4)
        for k in range(1, 5):
            got = full.singular_coefficient(k, Fraction(1, 4), Fraction(1 - 3 * k, 2))
            if got != RadicalConstant(laws.singular_coeff_full(k)):
                return f"full-class series singular coefficient differs from the law at k={k}"
        for k in range(5):
            got = r2.singular_coefficient(k, Fraction(1, 2), Fraction(-1 - 3 * k, 2))
            if got != laws.singular_coeff_r2(k):
                return f"r2 series singular coefficient differs from the law at k={k}"
        return None

    def cross_ring():
        ring = exact_ring()
        for cls in feq.CLASS_IDS:
            exact = feq.solve_series(cls, 12, ring)
            for K in range(4):
                if exact.collapse(K) != feq.solve_series(cls, 12, jet_ring(K)):
                    return f"jet and exact solutions differ for {cls} at K={K}"
        return None

    def burnside():
        ring = exact_ring()
        try:
            for sg in orbits.SUBGROUP_IDS:
                orbits.orbit_series(sg, 16, ring)
        except RuntimeError as exc:
            return str(exc)
        if orbits.orbit_series("e", 16, ring) != feq.solve_series("full", 16, ring):
            return "trivial subgroup orbits differ from the full class"
        return None

    def rect_mean():
        for m in (6, 50, 400):
            value = moments.normalized_moment("rect", m, 1)
            if not value.is_rational or value.rational != Fraction(2, 3) + Fraction(2, 3 * m):
                return f"rectangle normalized mean wrong at m={m}"
        return None

    def square_concentration():
        for m in (1, 2, 5, 9):
            value = moments.normalized_moment("square", m, 2)
            if not value.is_rational or value.rational != 1:
                return f"square normalized moment differs from 1 at m={m}"
        return None

    return [
        ("oracle equivalence (series vs enumeration)", oracle_equivalence),
        ("Catalan half-perimeter counts", catalan_counts),
        ("square and rectangle closed forms", closed_forms),
        ("singular-coefficient identities", balance_identities),
        ("jet/exact cross-ring consistency", cross_ring),
        ("Burnside integrality", burnside),
        ("rectangle normalized mean", rect_mean),
        ("square concentration", square_concentration),
    ]


def cmd_selftest(args) -> int:
    if not 2 <= args.max_m <= 14:
        raise _UsageError("--max-m must be between 2 and 14 for the selftest")
    failures = 0
    for name, check in _selftest_checks(args.max_m):
        start = time.perf_counter()
        problem = check()
        took = f"({time.perf_counter() - start:.2f} s)"
        if problem is None:
            print(f"ok: {name} {took}")
        else:
            failures += 1
            print(f"FAIL: {name}: {problem} {took}")
    if failures:
        print(f"{failures} check(s) failed")
        return 2
    print("all checks passed")
    return 0


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "series": cmd_series,
    "moments": cmd_moments,
    "limits": cmd_limits,
    "orbits": cmd_orbits,
    "compare": cmd_compare,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
