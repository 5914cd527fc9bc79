#!/usr/bin/env python3
"""Build the benchmark's input pools and record their reference outputs.

Run from the repository root at the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/make_refs.py

Every pool item is generated from a fixed pool seed, checked to be a valid
input (arrangements in subgeneral position, reduced curves, ...), then run
once through the same task code the benchmark times; the outputs are written
as `expect` next to the inputs in perfbench/refs/<workload>.json.  The
benchmark's own --seed only chooses and orders pool items.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tasks  # noqa: E402
from nochka.curves import CurveCoordinate, ProjectiveCurve, parse_coordinate  # noqa: E402
from nochka.errors import VerificationError  # noqa: E402
from nochka.fixtures import generate_intro_fixture, pencil_lines_arrangement  # noqa: E402
from nochka.geometry import (Arrangement, check_subgeneral_position, codim_oracle,  # noqa: E402
                             format_arrangement)
from nochka.nevanlinna import wronskian  # noqa: E402
from nochka.poly import Polynomial  # noqa: E402
from nochka.rank_core import linear_matroid_oracle, nochka_weights, validate_rank_oracle  # noqa: E402
from nochka.univar import UnivariatePoly  # noqa: E402

POOL_SIZE = 16
INTRO_SEEDS = range(1, POOL_SIZE + 1)
VARS3 = ("x0", "x1", "x2")


def _cli(name, argv, files=()):
    return {"name": name, "kind": "cli", "params": {"argv": [str(a) for a in argv],
                                                    "files": list(files)}}


def _task(name, kind, **params):
    return {"name": name, "kind": kind, "params": params}


def _costs(rng, q):
    return [str(Fraction(rng.randint(0, 9), rng.choice((1, 2, 3)))) for _ in range(q)]


def _bounds_argv(arr):
    return ["bounds", "--n", arr.n, "--degV", arr.deg_v, "--N", arr.N, "--q", arr.q,
            "--degrees", ",".join(map(str, arr.degrees)), "--epsilon", "1"]


def _line(coeffs):
    return Polynomial(3, {mono: c for mono, c in
                          zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coeffs) if c})


def _rand_vec(rng, dim, lo=-5, hi=5):
    while True:
        v = [rng.randint(lo, hi) for _ in range(dim)]
        if any(v):
            return v


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def lines_arrangement(rng) -> Arrangement:
    """Twelve plane lines: three concurrent triples (as in the nine-line pencil)
    plus three random lines, accepted once 3-subgeneral position is verified."""
    while True:
        coeffs = []
        for _ in range(3):
            apex = _rand_vec(rng, 3)
            coeffs.extend(_cross(apex, _rand_vec(rng, 3)) for _ in range(3))
        coeffs.extend(_rand_vec(rng, 3) for _ in range(3))
        if any(not any(c) for c in coeffs):
            continue
        try:
            arr = Arrangement(2, 2, 1, 3, (), tuple((f"L{i}", _line(c))
                                                    for i, c in enumerate(coeffs, 1)), VARS3)
        except ValueError:
            continue
        if len(set(arr.forms)) != arr.q:
            continue
        report = check_subgeneral_position(arr)
        if report.ok:
            return arr


def vector_configuration(rng) -> tuple[list[list[int]], int]:
    """q = 12 vectors in Q^4 (n = 3): two planted groups of four vectors in a
    common 3-space plus four random vectors; N = 4 once validation passes."""
    while True:
        vectors = []
        for _ in range(2):
            span = [_rand_vec(rng, 4) for _ in range(3)]
            for _ in range(4):
                c = [rng.randint(-2, 2) for _ in range(3)]
                vectors.append([sum(ci * s[k] for ci, s in zip(c, span)) for k in range(4)])
        vectors.extend(_rand_vec(rng, 4) for _ in range(4))
        if any(not any(v) for v in vectors):
            continue
        oracle = linear_matroid_oracle(vectors, 4)
        if not validate_rank_oracle(oracle).ok:
            continue
        try:
            nochka_weights(oracle)
        except VerificationError:
            continue
        rng.shuffle(vectors)
        return vectors, 4


def polynomial_curve(rng, top: int) -> ProjectiveCurve:
    """Three coordinates of degrees top, 1..top-2 and 0..top-3, each c * prod (z - a)^k
    with a in +-{1, 2, 3} (repeated roots give square-free decomposition work).

    The unique top degree makes one coordinate dominate on every circle of
    radius >= 10, so the circle averages there have smooth integrands."""
    while True:
        degrees = [top, rng.randint(1, top - 2), rng.randint(0, top - 3)]
        rng.shuffle(degrees)
        coords = []
        for d in degrees:
            p = UnivariatePoly([rng.choice((1, 2, 3))])
            while p.degree < d:
                factor = UnivariatePoly([-rng.choice((-3, -2, -1, 1, 2, 3)), 1])
                p = p * factor ** min(rng.choice((1, 1, 2)), d - p.degree)
            coords.append(CurveCoordinate.from_poly(p))
        # linearly independent coordinates: no hyperplane vanishes on the curve
        if wronskian([c.poly for c in coords]).is_zero:
            continue
        try:
            return ProjectiveCurve(coords)
        except ValueError:
            continue


def exponential_sum(rng) -> str:
    """a exp(z^2) + b exp(z) + c with small integers and phi(0) = a + b + c != 0."""
    while True:
        a, b, c = rng.choice((1, 2, -1)), rng.randint(-3, 3), rng.randint(-4, 4)
        if a + b + c != 0 and b != 0 and c != 0:
            break
    text = f"{a}*exp(z^2) {'+-'[b < 0]} {abs(b)}*exp(z) {'+-'[c < 0]} {abs(c)}"
    parse_coordinate(text)
    return text


def exact_oracle_pools(rng):
    files = {}
    intro = []
    for s in INTRO_SEEDS:
        arr = generate_intro_fixture(s).arrangement
        name = f"intro-{s}"
        item = [
            _cli("gen-fixture", ["gen-fixture", "--seed", s, "--out", "."],
                 [f"{name}.arrangement", f"{name}.manifest.json"]),
            _cli("oracle-dump", ["oracle-dump", "--arr", f"{name}.arrangement",
                                 "--out", f"{name}.oracle"], [f"{name}.oracle"]),
            _cli("position-check", ["position-check", "--arr", f"{name}.arrangement"]),
            _cli("weights", ["weights", "--oracle", f"{name}.oracle"]),
        ]
        for _ in range(4):
            subset = sorted(rng.sample(range(1, arr.q + 1), rng.randint(2, arr.N + 1)))
            item.append(_cli("greedy", ["greedy", "--oracle", f"{name}.oracle",
                                        "--subset", ",".join(map(str, subset)),
                                        "--costs", ",".join(_costs(rng, arr.q))]))
        item.append(_cli("bounds", _bounds_argv(arr)))
        intro.append(item)
    lines = []
    for i in range(POOL_SIZE):
        arr = lines_arrangement(rng)
        name = f"lines-{i}"
        files[f"{name}.arrangement"] = format_arrangement(arr)
        lines.append([
            _cli("oracle-dump", ["oracle-dump", "--arr", f"{name}.arrangement",
                                 "--out", f"{name}.oracle"], [f"{name}.oracle"]),
            _cli("position-check", ["position-check", "--arr", f"{name}.arrangement"]),
            _cli("weights", ["weights", "--oracle", f"{name}.oracle"]),
            _cli("bounds", _bounds_argv(arr)),
        ])
    vectors = []
    for _ in range(POOL_SIZE):
        vecs, N = vector_configuration(rng)
        vectors.append([_task("matroid", "matroid", vectors=vecs, N=N)])
    return {"files": files}, {"intro": intro, "lines": lines, "vectors": vectors}


def _intro_files():
    return {f"intro-{s}.arrangement": format_arrangement(generate_intro_fixture(s).arrangement)
            for s in INTRO_SEEDS}


def exact_hilbert_pools(rng):
    pencil = pencil_lines_arrangement()
    files = {"pencil.arrangement": format_arrangement(pencil), **_intro_files()}
    pools = {
        "pencil": [[_cli("hilbert", ["hilbert", "--arr", "pencil.arrangement", "--m", m])
                    for m in (4, 5)]],
        "pencil_hw": [[_cli("hilbert-weight", ["hilbert-weight", "--arr", "pencil.arrangement",
                                               "--m", 4, "--c", ",".join(_costs(rng, 9))])]
                      for _ in range(POOL_SIZE)],
        "intro_h": [[_task("hilbert_function", "hilbert_function",
                           arr=f"intro-{s}.arrangement", m=m) for m in (2, 3)]
                    for s in INTRO_SEEDS],
    }
    # triples of pencil lines with empty common intersection: not one concurrent triple
    triples = [list(t) for t in combinations(range(1, 10), 3)
               if len({(i - 1) // 3 for i in t}) > 1]
    pools["verify"] = [[_task("verify_hilbert", "verify_hilbert", m=4,
                              costs=_costs(rng, 9), subset=rng.choice(triples))]
                       for _ in range(POOL_SIZE)]
    pools["lift"] = [[_task("lift", "lift", curve=polynomial_curve(rng, 3).to_text(), m=2)]
                     for _ in range(POOL_SIZE)]
    return {"files": files}, pools


def transcendental_pools(rng):
    files = _intro_files()
    pools = {
        "smt_exp": [[_task("smt_report", "smt_exp", arr=f"intro-{s}.arrangement",
                           epsilon="1/2", radii=[2.0])] for s in INTRO_SEEDS],
        "jensen_exp": [[_cli("jensen", ["jensen", "--phi", exponential_sum(rng),
                                        "--radii", "2,3"])]
                       for _ in range(4 * POOL_SIZE)],
    }
    return {"files": files}, pools


def polynomial_curve_pools(rng):
    pencil = pencil_lines_arrangement()
    files = {"pencil.arrangement": format_arrangement(pencil), **_intro_files()}
    # the smt_report tasks take the subgeneral-position verdict from set-up,
    # which rebuilds it from these stored oracle tables without Groebner work
    oracles = {f"intro-{s}.arrangement":
               "".join(map(str, codim_oracle(generate_intro_fixture(s).arrangement).table))
               for s in INTRO_SEEDS}
    sweep = [[_task("sweep", "sweep", epsilon="1/2", rmin=float(rmin), rmax=float(rmax),
                    steps=7)]
             for rmin in (5, 10, 20, 40) for rmax in (1e3, 1e4)]
    curves = []
    for i in range(POOL_SIZE):
        curve = polynomial_curve(rng, 5)
        name = f"curve-{i}.curve"
        files[name] = curve.to_text()
        phi = max((c.poly for c in curve.coordinates), key=lambda p: p.degree)
        curves.append([
            _task("smt_report", "smt_poly", curve=name, epsilon="1/2",
                  arr=f"intro-{rng.choice(list(INTRO_SEEDS))}.arrangement",
                  radii=[10.0, 100.0, 1000.0]),
            _cli("cartan-check", ["cartan-check", "--arr", "pencil.arrangement",
                                  "--curve", name, "--epsilon", "1", "--radii", "10,100"]),
            _cli("wronskian-check", ["wronskian-check", "--curve", name]),
            _cli("jensen", ["jensen", "--phi", phi.to_text(), "--radii", "1.5,2.5,5"]),
        ])
    return {"files": files, "oracles": oracles}, {"sweep": sweep, "curve": curves}


BUILDERS = {
    "exact-oracle": exact_oracle_pools,
    "exact-hilbert": exact_hilbert_pools,
    "transcendental": transcendental_pools,
    "polynomial-curve": polynomial_curve_pools,
}


def record(workload: str, pool_seed: int) -> dict:
    """Run every pool item once; keep its outputs as `expect` and its time as its cost."""
    inputs, pools = BUILDERS[workload](random.Random(pool_seed))
    costs = {name: [] for name in pools}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            ctx = tasks.Context(inputs)
            for name, items in pools.items():
                for item in items:
                    start = time.perf_counter()
                    for task in item:
                        call, view = tasks.KINDS[task["kind"]]
                        params = task["params"]
                        task["expect"] = view(call(params, ctx), params, ctx)
                        if task["kind"] == "cli" and task["expect"]["rc"] != 0:
                            raise SystemExit(f"{workload}: {params['argv']} exited "
                                             f"{task['expect']['rc']}")
                    costs[name].append(round(time.perf_counter() - start, 4))
        finally:
            os.chdir(cwd)
    return {"workload": workload, "pool_seed": pool_seed, "inputs": inputs,
            "costs": costs, "pools": pools}


def main() -> None:
    out = HERE / "refs"
    out.mkdir(exist_ok=True)
    names = sys.argv[1:] or list(BUILDERS)
    for workload in names:
        refs = record(workload, 1000 + list(BUILDERS).index(workload))
        (out / f"{workload}.json").write_text(json.dumps(refs, separators=(",", ":")) + "\n")
        print(f"wrote refs/{workload}.json", flush=True)


if __name__ == "__main__":
    main()
