"""One benchmark sample: set up, run one workload once, report as JSON.

run.py starts this file in a fresh interpreter for every sample, so no
process-wide memo carries over from one sample to the next, just as for
a user who runs the command line once per task.  The last line of
standard output is one JSON object with the timings, the machine output
(the records the command line would print with --machine) and, when
traced, the per-layer values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SESSION_FILES = ("family_a.session", "family_b.session")
SESSION_VARS = 5
SUITE_SIZES = (3, 4, 5)
FACTORIZATION_N = 7
# Steps of each half of the reference kernel, about 10-30% of the
# workload's own time: a longer workload needs longer reference windows
# to sample the same mix of host speeds.
REFERENCE_STEPS = {"factorization": 1_500_000, "suite": 300_000, "session": 300_000}


def relabelling(seed: int) -> list:
    """perm[i - 1] is the new index of x_i; seed 0 is the identity."""
    perm = list(range(1, SESSION_VARS + 1))
    if seed:
        random.Random(seed).shuffle(perm)
    return perm


def relabel(text: str, perm: list) -> str:
    return re.sub(r"\bx([1-9][0-9]*)\b", lambda m: f"x{perm[int(m.group(1)) - 1]}", text)


def reference_kernel(steps: int) -> int:
    """Fixed pure-Python work that never changes: sparse dict arithmetic
    over tuple keys, the kind of work levelbounds spends its time on.
    Its time measures the host's current speed, which run.py divides
    out of the workload's time."""
    acc: dict = {}
    for i in range(steps):
        key = (i % 7, i % 11, i % 13)
        acc[key] = (acc.get(key, 0) + i * 31) % 101
    return len(acc)


def _cpu_seconds() -> float:
    # process_time has nanosecond resolution; getrusage only ticks
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    args = ap.parse_args()

    import numpy
    from levelbounds import cli, level, session, suite

    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    texts = []
    if args.workload == "session":
        perm = relabelling(args.seed)
        for name in SESSION_FILES:
            with open(os.path.join(HERE, "sessions", name), encoding="utf-8") as fh:
                texts.append(relabel(fh.read(), perm))

    setup_s = time.monotonic() - args.spawned_at
    # The reference kernel brackets the workload, half before and half
    # after, so that it samples the host's speed on both sides.
    ref_t0, ref_c0 = time.monotonic(), time.thread_time()
    reference_kernel(REFERENCE_STEPS[args.workload])
    ref_s, ref_cpu_s = time.monotonic() - ref_t0, time.thread_time() - ref_c0

    cpu0 = _cpu_seconds()
    t0 = time.monotonic()
    # Module attributes are looked up at call time, so traced wrappers
    # installed above are the ones called.
    if args.workload == "factorization":
        fr = level.verify_factorization_example(FACTORIZATION_N)
        outputs = [json.dumps(
            {"schema": cli.SCHEMA, "task": "factorization-example", "result": fr.as_dict()},
            sort_keys=True,
        )]
    elif args.workload == "suite":
        outputs = []
        for n in SUITE_SIZES:
            sr = suite.run_suite(n)
            outputs.append(json.dumps(
                {"schema": cli.SCHEMA, "task": "paper-suite", "result": sr.as_dict()},
                sort_keys=True,
            ))
    elif args.workload == "session":
        # what `levelbounds run FILE --machine` does for each file
        outputs = []
        for text in texts:
            _, out = cli.run_session(session.parse_session(text), machine=True)
            outputs.append(out)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")
    wall_s = time.monotonic() - t0
    cpu_s = _cpu_seconds() - cpu0

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref_t0, ref_c0 = time.monotonic(), time.thread_time()
    reference_kernel(REFERENCE_STEPS[args.workload])
    ref_s += time.monotonic() - ref_t0
    ref_cpu_s += time.thread_time() - ref_c0

    machine = "\n".join(outputs)
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "wall_rel": wall_s / ref_s,
        # the kernel's CPU time is taken on its own thread: the process
        # clock would also count numpy's pool threads spinning up
        "cpu_rel": cpu_s / ref_cpu_s,
        "ref_s": ref_s,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
        "sha256": hashlib.sha256(machine.encode("utf-8")).hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if args.workload == "session":
        report["relabelling"] = perm
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["trace_notes"] = tracer.notes
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # reported to run.py, which counts the sample's tasks as failed
        traceback.print_exc()
        sys.exit(1)
