"""One round of one workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --out DIR [--trace SPANS.json]

``staircase`` must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH).  Set-up ends once the package is imported; the clock for
``wall_s`` covers only the workload's calls into the program.  The last line
of stdout is one JSON object with the round's figures.
"""

import time

import staircase.cli  # noqa: F401  (set-up: the whole package, ready to use)

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402

import workloads  # noqa: E402


def peak_rss_kib():
    """This process's own peak resident memory.  ru_maxrss is not used: on
    Linux it keeps the high-water mark of the parent's memory image that the
    process replaced at exec."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None, help="write spans here and trace the round")
    args = parser.parse_args()
    spec = workloads.SPECS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    flags, state = workloads.run(args.workload, spec, args.out)
    wall = time.perf_counter() - start
    peak_kib = peak_rss_kib()
    result = {"ready": READY, "wall_s": wall, "peak_rss_kib": peak_kib,
              "attempted": len(flags), "failed": flags.count(False)}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        with open(args.trace, "w") as handle:
            json.dump(tracer.spans, handle)
    workloads.record(args.workload, spec, args.out, state)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
