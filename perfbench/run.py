"""levelbounds benchmark: end-to-end and per-layer metrics for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

The load is a closed loop: one caller runs the workload's tasks one at a
time, and every sample is a fresh interpreter (sample.py) started only
after the previous one has exited.  Samples are taken until --seconds is
used up (at least MIN_SAMPLES), alternating PYTHONHASHSEED between two
values, and every metric is the median over the run's samples.  The
timed metrics wall_rel and cpu_rel are the sample's wall and CPU time
divided by the time of a fixed reference kernel that the same sample
runs around its workload, which cancels the host's drifting speed; the
raw seconds are printed beside them.  With
--trace 1, traced and untraced samples alternate; the per-layer metrics
are medians over the traced ones and trace.overhead_ratio compares the
two.  Every sample's machine output is checked against the hand-written
answers in expected.json, and its sha256 must be the same in every
sample of the run.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Metric names and units are read from BENCHMARK.json at the repository
root.  See perfbench/README.md for the workloads and the measured spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("factorization", "suite", "session")
HASH_SEEDS = ("1", "2")
MIN_SAMPLES = 4
# Stop starting samples after HARD_LIMIT_S, and stop any sample still
# running at RUN_LIMIT_S, so that one run ends within three minutes even
# on a slow host.
HARD_LIMIT_S = 140.0
RUN_LIMIT_S = 170.0
# Printed for reference; BENCHMARK.json holds the host-normalised forms.
RAW_TIMES = ("wall_s", "cpu_s", "ref_s")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str:
    # only inside a git checkout of this repository; never search upwards
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or "unknown"


def sample_env(hash_seed: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = hash_seed
    return env


def build() -> None:
    """Compile and import the package once, untimed, so samples start warm."""
    proc = subprocess.run(
        [sys.executable, "-c", "import levelbounds.cli, levelbounds.suite"],
        env=sample_env(HASH_SEEDS[0]), cwd=ROOT, capture_output=True, text=True,
        timeout=RUN_LIMIT_S, check=False,
    )
    if proc.returncode != 0:
        fail(f"cannot import levelbounds from {os.path.join(ROOT, 'src')}:\n{proc.stderr}")


def run_sample(workload: str, seed: int, traced: bool, hash_seed: str, timeout: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "sample.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(started)],
        env=sample_env(hash_seed), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"sample stopped after {timeout:.0f} s", "elapsed": time.monotonic() - started}
    elapsed = time.monotonic() - started
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-5:])
        return {"error": f"sample exited with {proc.returncode}: {tail}", "elapsed": elapsed}
    try:
        rep = json.loads(lines[-1])
    except ValueError:
        return {"error": f"unreadable sample report: {lines[-1][:200]}", "elapsed": elapsed}
    rep["elapsed"] = elapsed
    return rep


# -- checking outputs against expected.json ----------------------------------


def check_factorization(outputs: list, expected: dict) -> list:
    """One (task name, problem or None) per expected task."""
    results = []
    records = [json.loads(line)["result"] for line in outputs]
    for idx, want in enumerate(expected["tasks"]):
        if idx >= len(records):
            results.append((want["name"], "missing"))
            continue
        rec = records[idx]
        got_checks = {c["name"]: c["ok"] for c in rec["checks"]}
        if rec["n"] != want["n"] or rec["passed"] != want["passed"] or got_checks != want["checks"]:
            results.append((want["name"], f"got passed={rec['passed']} checks={got_checks}"))
        else:
            results.append((want["name"], None))
    return results


def check_suite(outputs: list, expected: dict) -> list:
    results = []
    by_n = {}
    for line in outputs:
        rec = json.loads(line)["result"]
        by_n[rec["n"]] = {c["name"]: c for c in rec["checks"]}
    for want in expected["tasks"]:
        n = want["n"]
        got = by_n.get(n, {})
        for name, ok in want["checks"].items():
            label = f"suite n={n} {name}"
            if name not in got:
                results.append((label, "missing"))
            elif got[name]["ok"] != ok:
                results.append((label, f"ok={got[name]['ok']}: {got[name]['detail']}"))
            else:
                results.append((label, None))
        for name in sorted(set(got) - set(want["checks"])):
            results.append((f"suite n={n} {name}", "no expected answer for this check"))
    return results


def check_session(outputs: list, expected: dict) -> list:
    results = []
    for text, (fname, wants) in zip(outputs, expected["files"].items()):
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        for idx, want in enumerate(wants):
            label = f"{fname} task {idx + 1} ({want['task']})"
            if idx >= len(records):
                results.append((label, "missing"))
                continue
            rec = records[idx]
            res = rec["result"]
            problems = []
            if rec["task"] != want["task"] or rec["ok"] != want["ok"]:
                problems.append(f"task={rec['task']} ok={rec['ok']}")
            for key, value in want["result"].items():
                if res.get(key) != value:
                    problems.append(f"{key}={res.get(key)!r} want {value!r}")
            cert_values = {c["value"] for c in res.get("certificates", [])}
            for value in want.get("avoid_certificate_values", []):
                if value in cert_values:
                    problems.append(f"a certificate carries {value}")
            results.append((label, "; ".join(problems) or None))
        for idx in range(len(wants), len(records)):
            results.append((f"{fname} task {idx + 1}", "no expected answer for this task"))
    if len(outputs) != len(expected["files"]):
        results.append(("session files", f"{len(outputs)} outputs for {len(expected['files'])} files"))
    return results


CHECKERS = {"factorization": check_factorization, "suite": check_suite, "session": check_session}


def expected_task_count(workload: str, expected: dict) -> int:
    if workload == "suite":
        return sum(len(t["checks"]) for t in expected["tasks"])
    if workload == "session":
        return sum(len(tasks) for tasks in expected["files"].values())
    return len(expected["tasks"])


# -- one run -------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    expected = load_json(os.path.join(HERE, "expected.json"))[workload]
    samples = []
    start = time.monotonic()
    while True:
        idx = len(samples)
        traced = trace and idx % 2 == 1
        # with tracing, untraced/traced pairs alternate the hash seed
        hash_seed = HASH_SEEDS[(idx // 2 if trace else idx) % 2]
        timeout = max(1.0, start + RUN_LIMIT_S - time.monotonic())
        rep = run_sample(workload, seed, traced, hash_seed, timeout)
        rep["traced"] = traced
        rep["hash_seed"] = hash_seed
        samples.append(rep)
        elapsed = time.monotonic() - start
        typical = statistics.median(s["elapsed"] for s in samples)
        if len(samples) >= MIN_SAMPLES and (elapsed + typical > seconds or elapsed > HARD_LIMIT_S):
            break

    attempted = failed = 0
    problems = []
    for rep in samples:
        if "error" in rep:
            n = expected_task_count(workload, expected)
            attempted += n
            failed += n
            problems.append(f"sample failed: {rep['error']}")
            continue
        for label, problem in CHECKERS[workload](rep["outputs"], expected):
            attempted += 1
            if problem is not None:
                failed += 1
                problems.append(f"{label}: {problem}")
    good = [s for s in samples if "error" not in s]
    digests = sorted({s["sha256"] for s in good})
    deterministic = len(digests) == 1 and len({s["hash_seed"] for s in good}) == len(HASH_SEEDS)

    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    metrics = {}
    notes = []
    raw = {}
    if plain:
        raw = {name: statistics.median(s[name] for s in plain) for name in RAW_TIMES}
    if not trace and plain:
        for m in bench["end_to_end"]:
            value = statistics.median(s[m["name"]] for s in plain)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    elif traced and plain:
        layer_values = {}
        for s in traced:
            for name, value in s["layers"].items():
                layer_values.setdefault(name, []).append(value)
        notes = sorted({note for s in traced for note in s["trace_notes"]})
        wall_plain = statistics.median(s["wall_rel"] for s in plain)
        wall_traced = statistics.median(s["wall_rel"] for s in traced)
        layer_values["trace.overhead_ratio"] = [wall_traced / wall_plain - 1.0]
        for m in bench["per_layer"]:
            values = layer_values.get(m["name"])
            if values is None:
                notes.append(f"{m['name']}: absent, no traced value")
                continue
            value = statistics.median(values)
            if all(isinstance(v, int) for v in values) and value == int(value):
                value = int(value)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    info = {
        "workload": workload,
        "seed": seed,
        "samples": len(samples),
        "traced_samples": len(traced),
        "python": good[0]["python"] if good else sys.version.split()[0],
        "numpy": good[0]["numpy"] if good else "unknown",
        "nproc": os.cpu_count(),
        "git": git_sha(),
        "sha256": digests[0] if len(digests) == 1 else digests,
    }
    if good and "relabelling" in good[0]:
        info["relabelling"] = " ".join(
            f"x{i + 1}->x{j}" for i, j in enumerate(good[0]["relabelling"])
        )
    return {
        "info": info,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "deterministic": deterministic,
        "metrics": metrics,
        "raw": raw,
        "notes": notes,
        "traced_samples": traced,
    }


def print_human(result: dict, trace: bool) -> None:
    info = result["info"]
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for name, value in result["raw"].items():
        print(f"  {name} = {value!r} s")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  fail_ratio = {ratio!r} ratio ({result['failed']} of {result['attempted']} tasks)")
    print(
        f"  deterministic = {'yes' if result['deterministic'] else 'NO'} "
        f"(sha256 of the machine output under PYTHONHASHSEED {' and '.join(HASH_SEEDS)})"
    )
    for problem in result["problems"][:20]:
        print(f"  FAIL {problem}")
    for note in result["notes"]:
        print(f"  note: {note}")
    if trace and result["traced_samples"]:
        rep = result["traced_samples"][0]
        selfs = {k[: -len(".self_s")]: v for k, v in rep["layers"].items() if k.endswith(".self_s")}
        top = sorted(selfs.items(), key=lambda kv: kv[1], reverse=True)[:6]
        shares = ", ".join(f"{k} {100 * v / rep['wall_s']:.0f}%" for k, v in top if v > 0)
        print(f"  largest self-time shares of traced wall {rep['wall_s']:.3f} s: {shares}")


def main() -> int:
    ap = argparse.ArgumentParser(description="levelbounds benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail(f"{bench_path} not found")
    if not os.path.isfile(os.path.join(ROOT, "src", "levelbounds", "__init__.py")):
        fail(f"no levelbounds source tree under {os.path.join(ROOT, 'src')}")
    bench = load_json(bench_path)
    build()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), bench)
        print_human(result, bool(args.trace))
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['info']['workload']}.{name}": m for r in results for name, m in r["metrics"].items()
        }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["deterministic"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
