"""The three workloads: their fixed inputs, the program calls that make up
one round, and the record of outputs each round leaves for the checks.

Inputs are fixed parameter lists.  No input depends on a seed: every round of
a workload makes the same calls and must write the same bytes.

``run`` is timed; ``record`` runs after the clock has stopped and only
writes down values the program already holds (cache hits and report
fields), so the checks in ``checks.py`` can read them from files.
"""

from __future__ import annotations

import json
import os
import sys
import traceback

SPECS = {
    # staircase moments --class full --k 1,2 --m 64,...,1024
    "airy-moments": {"k": (1, 2), "m": (64, 128, 256, 512, 1024)},
    # convergence_report(cls, 1, m, jet_order=1); indices are the class's own
    # (half-perimeter for r2, quarter-perimeter for d2 and d1d2)
    "meander-moments": {"classes": ("r2", "d2", "d1d2"),
                        "m": (64, 128, 256, 512, 1024)},
    # enumerate to max_m, exact series and orbit tables to order; orbit
    # tables are compared with a brute-force orbit count up to orbit_check_m
    "exact-tables": {"max_m": 13, "order": 56, "orbit_check_m": 9},
}

CLASS_IDS = ("full", "r2", "d1", "d2", "d1d2", "rect", "square")
SUBGROUP_IDS = ("e", "r2", "r", "d1", "d2", "d1d2", "h", "v", "hv", "d4")


def _cli(argv):
    from staircase import cli

    def op():
        return cli.main(argv) == 0
    return op


def airy_ops(spec, out):
    argv = ["moments", "--class", "full",
            "--k", ",".join(map(str, spec["k"])),
            "--m", ",".join(map(str, spec["m"])),
            "--out", os.path.join(out, "moments.csv")]
    return [_cli(argv)]


def exact_ops(spec, out):
    order = str(spec["order"])
    ops = [_cli(["enumerate", "--max-m", str(spec["max_m"]),
                 "--out", os.path.join(out, "enumerate.csv")])]
    for cls in CLASS_IDS:
        ops.append(_cli(["series", "--class", cls, "--order", order, "--mode", "exact",
                         "--out", os.path.join(out, f"series_{cls}.csv")]))
    for sg in SUBGROUP_IDS:
        ops.append(_cli(["orbits", "--subgroup", sg, "--order", order,
                         "--out", os.path.join(out, f"orbits_{sg}.csv")]))
    return ops


def meander_ops(spec, out, reports):
    from staircase import moments

    def report(cls):
        def op():
            reports[cls] = moments.convergence_report(cls, 1, spec["m"], jet_order=1)
            return True
        return op
    return [report(cls) for cls in spec["classes"]]


def run(workload, spec, out):
    """One round of the workload; returns one ok flag per operation.  An
    operation that raises counts as failed and the round goes on."""
    state = {}
    if workload == "airy-moments":
        ops = airy_ops(spec, out)
    elif workload == "meander-moments":
        ops = meander_ops(spec, out, state)
    else:
        ops = exact_ops(spec, out)
    flags = []
    for op in ops:
        try:
            flags.append(bool(op()))
        except Exception:  # one failed operation must not end the round
            traceback.print_exc(file=sys.stderr)
            flags.append(False)
    return flags, state


def meander_series_orders(spec):
    """Solved orders the meander checks read back: each class to its largest
    half-perimeter, and the prerequisites full and d1 to half of d2's and
    d1d2's."""
    top = max(spec["m"])
    return {"r2": top, "d2": 2 * top, "d1d2": 2 * top, "full": top, "d1": top}


def record(workload, spec, out, state):
    """Write what the checks need beyond the files the workload wrote."""
    if workload != "meander-moments":
        return
    from staircase.feq import solve_series
    from staircase.series import jet_ring

    rows = {}
    for cls, report in state.items():
        rows[cls] = [[r.m, str(r.factorial_moment), str(r.power_moment),
                      str(r.normalized.rational), r.normalized.root, str(r.rel_dev)]
                     for r in report.rows]
    with open(os.path.join(out, "reports.json"), "w") as handle:
        json.dump(rows, handle)
    # every series below is already cached at this order or higher
    for cls, order in meander_series_orders(spec).items():
        series = solve_series(cls, order, jet_ring(1))
        slots = [[format(v, "x") for v in c.c] for c in series.coeffs]
        with open(os.path.join(out, f"series_{cls}.json"), "w") as handle:
            json.dump(slots, handle)
