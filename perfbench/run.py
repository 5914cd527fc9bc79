#!/usr/bin/env python3
"""nochka benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload exact-oracle --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  Each
workload runs in its own single-threaded worker process (perfbench/worker.py),
which checks every task's output against the references in perfbench/refs/.
With --trace 0 the last line holds the end-to-end metrics, with --trace 1 the
per-layer metrics; the lines before it give the details (percentiles, sample
counts, failures, environment).  Set-up time is the median of the worker's
own start-up and SETUP_PROBES more set-up-only starts.

Times are reported in reference seconds: the worker samples the machine's
speed with a fixed kernel as it runs (perfbench/calibrate.py), and each
task's CPU time, less the kernel time inside it, is scaled by the speed
measured around it.  The raw wall-clock figures follow on `#` lines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4
# Wall-clock caps: a worker past its cap is killed and the rest of its
# round counts as failed; the whole command stays under 180 s per workload.
RUN_CAP_PAD_S = 90.0
WORKLOAD_BUDGET_S = 170.0


def percentile(sorted_xs: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def spawn(root: Path, workdir: Path, args: list[str], timeout: float):
    """Start a worker; return (its JSON lines, killed by the cap?)."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
                            cwd=workdir, env=env, stdout=subprocess.PIPE, text=True)
    killed = False
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        killed = True
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            print(line, file=sys.stderr)
    return records, killed or proc.returncode != 0


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    scratch = root / ".bench_tmp" / f"{workload}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        records, broken = spawn(root, scratch / "run", [*common, "--trace", str(int(trace))],
                                min(seconds + RUN_CAP_PAD_S, WORKLOAD_BUDGET_S))
        setups = [r["ready_ref"] for r in records if "ready" in r]
        raw_setups = [r["ready"] for r in records if "ready" in r]
        if not trace:
            for k in range(SETUP_PROBES):
                left = WORKLOAD_BUDGET_S - (time.monotonic() - started)
                probe, _ = spawn(root, scratch / f"setup-{k}", [*common, "--setup-only"], left)
                setups.extend(r["ready_ref"] for r in probe if "ready" in r)
                raw_setups.extend(r["ready"] for r in probe if "ready" in r)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    ready = next((r for r in records if "ready" in r), {})
    done = next((r for r in records if "done" in r), None)
    tasks = [r for r in records if "task" in r]
    rounds = [r for r in records if "round_done" in r]
    complete = {r["round_done"] for r in rounds}
    samples = [row for t in tasks for row in t["samples"]]
    timed = [t for t in tasks if t["round"] in complete and not t["traced"]]
    for t in timed:
        inside, speed = calibrate.window(samples, *t["t"])
        t["ref_s"] = (t["cpu"] - inside) * speed
        t["speed"] = speed
    attempted = len(tasks)
    failed = sum(not t["ok"] for t in tasks)
    if broken or done is None:
        # the task in flight and the rest of its round count as failed
        size = ready.get("round_size", 1)
        last = max((t["round"] for t in tasks), default=-1)
        ran = sum(1 for t in tasks if t["round"] == last and t["round"] >= 0)
        missing = max(size - ran, 1)
        attempted += missing
        failed += missing
    for t in tasks:
        if not t["ok"]:
            print(f"# {workload} FAILED {t['task']} (round {t['round']}): {t['error']}")
    return {"workload": workload, "seed": seed, "setups": setups, "raw_setups": raw_setups,
            "timed": timed, "speed": statistics.fmean(row[2] for row in samples) if samples else 1.0,
            "rounds": len(complete), "round_size": ready.get("round_size", 0),
            "attempted": max(attempted, 1), "failed": failed, "done": done or {},
            "rss_mb": (done or (rounds[-1] if rounds else {})).get("rss_mb"),
            "numpy": ready.get("numpy", "?")}


def end_to_end(res: dict, key: str = "ref_s", setups: str = "setups") -> dict:
    """The end-to-end metrics from the whole rounds, also of a worker that was killed.

    `key` and `setups` pick reference-speed ("ref_s", "setups") or raw
    ("s", "raw_setups") times."""
    lat = sorted(t[key] for t in res["timed"])
    if not lat or not res[setups]:
        return {}
    pct = WORKLOADS[res["workload"]]["tail_pct"]
    tail = percentile(lat, pct)
    res["tail_note"] = (f"p{pct} of {len(lat)} samples, "
                        f"{sum(1 for x in lat if x > tail)} beyond")
    verified = sum(1 for t in res["timed"] if t["ok"])
    return {
        "tasks_per_s": (verified / sum(lat), "tasks/s"),
        "task_s.p50": (percentile(lat, 50), "s"),
        "task_s.tail": (tail, "s"),
        "setup_s": (statistics.median(res[setups]), "s"),
        "peak_rss_mb": (res["rss_mb"], "MiB"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "nochka" / "__init__.py").is_file():
        print("run from the root of a nochka checkout: src/nochka is missing", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(root, name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    print(f"# env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={results[0]['numpy']} loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())}")

    metrics, missing = {}, []
    for res in results:
        w = res["workload"]
        prefix = f"{w}." if len(results) > 1 else ""
        print(f"# {w} seed={res['seed']}: {res['rounds']} whole rounds of {res['round_size']} "
              f"tasks; fail_ratio = {res['failed']}/{res['attempted']} = "
              f"{res['failed'] / res['attempted']:.4g} failed/attempted")
        if args.trace:
            got = {k: (v["value"], v["unit"])
                   for k, v in res["done"].get("layers", {}).items()}
        else:
            got = end_to_end(res)
        if not got:
            missing.append(w)
        for name, (value, unit) in got.items():
            note = ""
            if name == "task_s.tail":
                note = f"  ({res['tail_note']})"
            elif name == "setup_s":
                note = f"  (median of {len(res['setups'])} set-ups)"
            print(f"# {w} {name} = {value:.6g} {unit}{note}")
            metrics[prefix + name] = {"value": value, "unit": unit}
        if got and not args.trace:
            print(f"# {w} machine speed = {res['speed']:.4g} x reference (mean of "
                  f"{sum(len(t['samples']) for t in res['timed'])} samples); raw wall-clock:")
            for name, (value, unit) in end_to_end(res, "s", "raw_setups").items():
                print(f"# {w}   raw {name} = {value:.6g} {unit}")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if missing:
        print(f"no metrics for {', '.join(missing)}: no round completed", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
