"""The four workloads: which pools a round draws from, and the tail percentile.

Kept free of nochka imports so that run.py can read it without loading the
program.  Why each workload exists is in perfbench/README.md and BENCHMARK.json.
"""

from __future__ import annotations

import random

# Each round takes `count` items from every pool, in this order; every item
# expands into its list of tasks.  `tail_pct` is the percentile reported as
# task_s.tail: the highest of 75/90/95/99 that leaves at least 10 samples
# beyond it in a 25 s run at the seed commit, also on a slow run, and that
# falls inside a block of like tasks rather than between two (see README.md).
WORKLOADS = {
    "exact-oracle": {"round": [("intro", 2), ("lines", 2), ("vectors", 2)],
                     "tail_pct": 90},
    "exact-hilbert": {"round": [("pencil", 1), ("pencil_hw", 1), ("intro_h", 1),
                                ("verify", 5), ("lift", 14)],
                      "tail_pct": 75},
    "transcendental": {"round": [("smt_exp", 1), ("jensen_exp", 8)],
                       "tail_pct": 75},
    "polynomial-curve": {"round": [("sweep", 4), ("curve", 1)],
                         "tail_pct": 95},
}


def plan_rounds(refs: dict, workload: str, seed: int):
    """Yield the task list of round 0, 1, 2, ...

    A pool drawn `count` times per round is cut into `count` strata of
    neighbouring reference cost, and each round takes the next item of every
    stratum in a seeded order.  Rounds so ask for about the same work
    whatever the seed, while the seed still picks which inputs are used."""
    rng = random.Random(f"{workload}/{seed}")
    pools, costs = refs["pools"], refs["costs"]
    strata = []
    for name, count in WORKLOADS[workload]["round"]:
        ranked = sorted(range(len(pools[name])), key=lambda i: costs[name][i])
        cuts = [len(ranked) * j // count for j in range(count + 1)]
        strata.extend((pools[name], rng.sample(ranked[a:b], b - a))
                      for a, b in zip(cuts, cuts[1:]))
    r = 0
    while True:
        yield [task for pool, order in strata for task in pool[order[r % len(order)]]]
        r += 1
