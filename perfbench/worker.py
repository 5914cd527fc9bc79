#!/usr/bin/env python3
"""Run one workload in this process and report every task as a JSON line.

Started by run.py with the scratch directory as working directory.  After
set-up it runs one untimed warm-up task, then rounds of tasks until
--seconds have passed; the first round always completes.  With --trace 1
every round runs twice over the same tasks, untraced and then traced, so
the tracing overhead is measured on identical work.

A `calibrate.Sampler` runs from before nochka is imported to the end, so
run.py can rescale every task and the set-up to the box's reference speed.
With --trace 1 it is stopped once the arguments are read, so that its
kernel adds nothing to the layers' self times.

Lines written to stdout, in order:
  {"ready": seconds since --t0, "ready_ref": CPU seconds of the process so
   far at reference speed, "round_size": n, "numpy": version}
  {"task": name, "round": r, "traced": bool, "warmup": bool, "s": seconds,
   "cpu": CPU seconds, "t": [start, end] perf_counter,
   "samples": [[end, cost, speed], ...], "ok": bool, "error": text or null}
                                          one per task attempted; "samples"
                                          are those taken since the last line
  {"round_done": r, "rss_mb": peak MiB}    after every completed round
  {"done": true, "rss_mb": peak MiB, "layers": {...}}
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy

import calibrate

SAMPLER = calibrate.Sampler()
if __name__ == "__main__":
    SAMPLER.start()   # before nochka is imported, so set-up is sampled too

import tasks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent

# A task running longer than this is stopped and counted as failed.
TASK_CAP_S = 60.0


class TaskTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise TaskTimeout(f"task exceeded its {TASK_CAP_S:.0f} s cap")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def run_task(task: dict, ctx) -> tuple[float, float, float, object, str | None]:
    """Time one task's call; return (start, end, CPU seconds, output view, error or None)."""
    call, view = tasks.KINDS[task["kind"]]
    params = task["params"]
    signal.setitimer(signal.ITIMER_REAL, TASK_CAP_S)
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        raw = call(params, ctx)
    except Exception as exc:
        end = time.perf_counter()
        cpu = time.process_time() - cpu
        if not isinstance(exc, (ValueError, RuntimeError, TaskTimeout)):
            traceback.print_exc()
        return start, end, cpu, None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = time.perf_counter()
    cpu = time.process_time() - cpu
    got = view(raw, params, ctx)
    return start, end, cpu, got, tasks.mismatch(got, task["expect"])


def emit_task(task: dict, r: int, traced: bool, start: float, end: float, cpu: float,
              error: str | None) -> None:
    emit({"task": task["name"], "round": r, "traced": traced, "warmup": r < 0,
          "s": end - start, "cpu": cpu, "t": [start, end], "samples": SAMPLER.take(),
          "ok": error is None, "error": error})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.trace:
        # per-layer self times are read without the kernel inside them
        SAMPLER.stop()

    refs = json.loads((HERE / "refs" / f"{args.workload}.json").read_text())
    ctx = tasks.Context(refs["inputs"])
    rounds = workloads.plan_rounds(refs, args.workload, args.seed)
    first = next(rounds)
    ready = time.monotonic() - args.t0
    ready_cpu = time.process_time()
    ready_at = time.perf_counter()
    for _ in range(calibrate.MIN_SAMPLES):
        SAMPLER.sample()
    inside, speed = calibrate.window(SAMPLER.take(), 0.0, ready_at)
    emit({"ready": ready, "ready_ref": (ready_cpu - inside) * speed, "round_size": len(first),
          "numpy": numpy.__version__})
    if args.setup_only:
        SAMPLER.stop()
        return

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer() if args.trace else None
    traced_rounds = 0
    pass_time = {False: 0.0, True: 0.0}
    pass_ok = {False: 0, True: 0}
    perturbed = 0

    def run_pass(task_list, r, traced, deadline) -> tuple[bool, float, int, int]:
        """Run one pass; False when the deadline stopped it before its end."""
        total, ok_count, bumps = 0.0, 0, 0
        for task in task_list:
            if deadline is not None and time.perf_counter() >= deadline:
                return False, total, ok_count, bumps
            start, end, cpu, got, error = run_task(task, ctx)
            total += end - start
            ok_count += error is None
            bumps += tasks.radius_perturbations(got)
            emit_task(task, r, traced, start, end, cpu, error)
        return True, total, ok_count, bumps

    warm = first[0]
    start, end, cpu, _, error = run_task(warm, ctx)
    emit_task(warm, -1, False, start, end, cpu, error)

    deadline = time.perf_counter() + args.seconds
    task_list, r = first, 0
    while True:
        limit = deadline if r else None
        complete, total, ok_count, _ = run_pass(task_list, r, False, limit)
        if complete and tracer is not None:
            tracer.install()
            try:
                complete, t_total, t_ok, bumps = run_pass(task_list, r, True, limit)
            finally:
                tracer.uninstall()
            if complete:
                traced_rounds += 1
                pass_time[False] += total
                pass_ok[False] += ok_count
                pass_time[True] += t_total
                pass_ok[True] += t_ok
                perturbed += bumps
                tracer.commit()
            else:
                tracer.discard()
        if not complete:
            break
        emit({"round_done": r, "rss_mb": peak_rss_mb()})
        if time.perf_counter() >= deadline:
            break
        task_list, r = next(rounds), r + 1

    layers = {}
    if tracer is not None and traced_rounds:
        layers = {name: {"value": value, "unit": unit}
                  for name, (value, unit) in tracer.layer_metrics(traced_rounds).items()}
        layers["nevanlinna.radius_perturbed"] = {"value": perturbed / traced_rounds,
                                                 "unit": "1/round"}
        layers["trace.task_s"] = {"value": pass_time[True] / traced_rounds, "unit": "s/round"}
        for traced, label in ((False, "untraced"), (True, "traced")):
            layers[f"trace.tasks_per_s_{label}"] = {
                "value": pass_ok[traced] / pass_time[traced], "unit": "tasks/s"}
        # both passes ran the same tasks, so their time ratio is the slowdown
        layers["trace.overhead"] = {"value": pass_time[True] / pass_time[False] - 1,
                                    "unit": "ratio"}
    SAMPLER.stop()
    emit({"done": True, "traced_rounds": traced_rounds, "layers": layers,
          "rss_mb": peak_rss_mb()})


if __name__ == "__main__":
    main()
