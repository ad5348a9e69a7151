"""The repository's benchmark: one workload, timed over whole rounds.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round runs the workload in a fresh
interpreter (bench/worker.py) with a cold solve cache, because a command-line
user pays for every solve on every run, pinned to the CPU that is least
slowed by other load at its start.  Rounds repeat while the next one
should end within S seconds.  The first round's outputs are checked
(checks.py) and every later round must write the same bytes.  The last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the medians over rounds of wall_s, setup_s
and peak_rss_mib.  With --trace 1 rounds alternate untraced and traced; the
metrics are the per-layer figures of the traced rounds (medians) and
trace.overhead_s, and bench/traces/<workload>-seed<N>.json receives one
traced round's spans and the SHA-256 of the outputs.

The inputs are fixed: --seed is recorded but changes no input.  The program
is run from <checkout>/src, and every file a round writes goes under
bench/tmp or bench/traces in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A run must end within this many seconds, whatever --seconds asks for.
RUN_LIMIT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def output_digest(out):
    """SHA-256 over the round's output files, by name, and one per file."""
    total = hashlib.sha256()
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as handle:
            data = handle.read()
        files[name] = hashlib.sha256(data).hexdigest()
        total.update(name.encode() + b"\0" + files[name].encode() + b"\n")
    return total.hexdigest(), files


def _spin():
    start = time.perf_counter()
    x = 0
    for i in range(200000):
        x += i * i
    return time.perf_counter() - start


def fastest_cpu(cpus):
    """The CPU on which a short fixed loop runs fastest right now.  On a
    shared host each CPU can run up to 1.5x slower for seconds to minutes,
    independently of the other CPUs; a round runs on the least slowed one."""
    def took(cpu):
        os.sched_setaffinity(0, {cpu})
        return min(_spin(), _spin())
    return min(sorted(cpus), key=took)


def run_round(workload, traced, deadline):
    """Run one round in a fresh interpreter; returns (figures, digest, files,
    spans, output dir).  The caller removes the round's directory."""
    base = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(HERE, "tmp"))
    out = os.path.join(base, "out")
    os.mkdir(out)
    spans_path = os.path.join(base, "spans.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--out", out]
    if traced:
        cmd += ["--trace", spans_path]
    env = dict(os.environ, PYTHONPATH=SRC)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {fastest_cpu(cpus)})
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round did not end within the run's time limit") from None
    finally:
        os.sched_setaffinity(0, cpus)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    figures = json.loads(proc.stdout.strip().splitlines()[-1])
    figures["setup_s"] = figures.pop("ready") - spawned
    spans = None
    if traced:
        with open(spans_path) as handle:
            spans = json.load(handle)
    digest, files = output_digest(out)
    return figures, digest, files, spans, base


def check_outputs(workload, out):
    import checks
    import workloads

    try:
        return checks.CHECKS[workload](workloads.SPECS[workload], out)
    except (OSError, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"{workload}.unreadable: {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "staircase", "__init__.py")):
        print(f"error: no staircase package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the orbit check uses the program's reference action
    os.makedirs(os.path.join(HERE, "tmp"), exist_ok=True)

    started = time.monotonic()
    stop_after = started + args.seconds
    deadline = started + RUN_LIMIT_S
    plan = (False, True) if args.trace else (False,)
    rounds = []  # (traced, figures)
    problems = []
    first = None
    last_trace = None
    try:
        while True:
            began = time.monotonic()
            for traced in plan:
                figures, digest, files, spans, base = run_round(args.workload, traced, deadline)
                try:
                    if first is None:
                        first = digest
                        problems += check_outputs(args.workload, os.path.join(base, "out"))
                    elif digest != first:
                        problems.append(f"{args.workload}.repeat: outputs differ between rounds")
                finally:
                    shutil.rmtree(base)
                rounds.append((traced, figures))
                print(f"round {len(rounds)}{' traced' if traced else ''}: "
                      f"wall_s {figures['wall_s']:.4f} setup_s {figures['setup_s']:.4f} "
                      f"peak_rss_kib {figures['peak_rss_kib']}", file=sys.stderr)
                if traced:
                    last_trace = (spans, digest, files)
            # start another whole round only if it should end in time
            now = time.monotonic()
            if now + (now - began) > stop_after:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(f["attempted"] for _, f in rounds)
    failed = sum(f["failed"] for _, f in rounds)
    plain = [f for traced, f in rounds if not traced]
    if args.trace:
        metrics = layer_metrics([f for traced, f in rounds if traced], plain)
        write_trace(args, metrics, rounds, last_trace)
    else:
        metrics = {
            "wall_s": statistics.median(f["wall_s"] for f in plain),
            "setup_s": statistics.median(f["setup_s"] for f in plain),
            "peak_rss_mib": statistics.median(f["peak_rss_kib"] for f in plain) / 1024,
        }
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(traced, plain):
    from tracer import PER_LAYER

    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = (statistics.median(f["wall_s"] for f in traced)
                     - statistics.median(f["wall_s"] for f in plain))
        else:
            value = statistics.median(f["layers"][name] for f in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def write_trace(args, metrics, rounds, last_trace):
    spans, digest, files = last_trace
    directory = os.path.join(HERE, "traces")
    os.makedirs(directory, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "outputs_sha256": digest,
        "files_sha256": files,
        "metrics": {name: m["value"] for name, m in metrics.items()},
        "wall_s": {"untraced": [f["wall_s"] for t, f in rounds if not t],
                   "traced": [f["wall_s"] for t, f in rounds if t]},
        # the tracer's own time around calls, summed over the spans below
        "bookkeeping_s": sum(span[4] for span in spans),
        "span_fields": ["name", "start", "end", "parent", "overhead"],
        "spans": spans,
    }
    with open(os.path.join(directory, f"{args.workload}-seed{args.seed}.json"), "w") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
