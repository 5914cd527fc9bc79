"""Checks of the benchmark itself: the correctness gate and independent
differential spot checks of the references.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import tasks  # noqa: E402
import worker  # noqa: E402
from nochka.fixtures import generate_intro_fixture, pencil_lines_arrangement  # noqa: E402
from nochka.geometry import hilbert_function  # noqa: E402
from nochka.poly import Ideal, ideal_dimension, monomials_of_degree  # noqa: E402


def _refs(workload):
    return json.loads((BENCH / "refs" / f"{workload}.json").read_text())


@pytest.fixture()
def oracle_item(tmp_path, monkeypatch):
    """One exact-oracle intro item with its context, run in a scratch directory."""
    monkeypatch.chdir(tmp_path)
    refs = _refs("exact-oracle")
    return tasks.Context(refs["inputs"]), refs["pools"]["intro"][0]


def _run(item, ctx):
    return [worker.run_task(task, ctx)[4] for task in item]


def test_reference_item_passes(oracle_item):
    ctx, item = oracle_item
    assert _run(item, ctx) == [None] * len(item)


def test_corrupted_exact_reference_fails_its_task(oracle_item):
    ctx, item = oracle_item
    bad = copy.deepcopy(item)
    weights = next(t for t in bad if t["name"] == "weights")
    theta = weights["expect"]["out"]["theta"]
    weights["expect"]["out"]["theta"] = theta + "1"
    errors = _run(bad, ctx)
    assert [e is not None for e in errors] == [t is weights for t in bad]
    assert "theta" in errors[bad.index(weights)]


def test_float_references_match_within_1e9_relative():
    ref = {"rows": [{"T": 3.25, "slack": -0.5}]}
    close = {"rows": [{"T": 3.25 * (1 + 1e-12), "slack": -0.5}]}
    far = {"rows": [{"T": 3.25 * (1 + 1e-7), "slack": -0.5}]}
    assert tasks.mismatch(close, ref) is None
    assert tasks.mismatch(far, ref).startswith("/rows/0/T: ")


def test_reference_seconds_drop_kernel_time_and_use_nearby_speeds():
    # [end, cost, speed] rows; a task from 1.5 to 3.0 holds the two at 2.0 and 2.5
    samples = [[0.5, 0.01, 1.0], [1.0, 0.01, 1.0], [2.0, 0.02, 2.0], [2.5, 0.02, 2.0],
               [4.0, 0.01, 3.0], [9.0, 0.01, 5.0]]
    # widened by one sample on each side to four: speeds 1, 2, 2, 3
    assert calibrate.window(samples, 1.5, 3.0) == pytest.approx((0.04, 2.0))
    # no sample inside: the two before and the two after, speeds 2, 2, 3, 5
    assert calibrate.window(samples, 2.6, 2.7) == pytest.approx((0.0, 3.0))
    sampler = calibrate.Sampler()
    sampler.sample()
    (end, cost, speed), = sampler.take()
    assert cost > 0 and speed > 0 and sampler.take() == []


def test_raising_task_counts_as_failed(oracle_item):
    ctx, _ = oracle_item
    # m = 1 does not exceed the pencil's degree bound, so the call raises ValueError
    bad = {"name": "verify_hilbert", "kind": "verify_hilbert", "expect": None,
           "params": {"m": 1, "costs": [1] * 9, "subset": [1, 4, 7]}}
    _, _, _, got, error = worker.run_task(bad, ctx)
    assert got is None and error.startswith("ValueError")


def test_pencil_hilbert_function_matches_sympy_rank():
    sympy = pytest.importorskip("sympy")
    pencil = pencil_lines_arrangement()
    x = sympy.symbols("x0 x1 x2")
    forms = [sympy.Poly(f.to_text(pencil.var_names), *x) for f in pencil.forms]
    for m in range(1, 5):
        products = []
        for exp in monomials_of_degree(pencil.q, m):
            p = sympy.Poly(1, *x)
            for form, e in zip(forms, exp):
                p = p * form ** e
            products.append(p)
        monos = sorted({mono for p in products for mono in p.monoms()})
        matrix = sympy.Matrix([[p.coeff_monomial(mono) for mono in monos] for p in products])
        assert hilbert_function(pencil, m).H == matrix.rank(), m


def _sympy_dimension(sympy, gens, x):
    """Projective dimension from sympy's reduced Groebner basis (grevlex):
    the largest set of variables carrying no leading monomial, minus one."""
    gb = sympy.groebner(gens, *x, order="grevlex")
    if any(g.is_number for g in gb.exprs):
        return -1
    leads = [sympy.Poly(g, *x).monoms(order="grevlex")[0] for g in gb.exprs]
    best = 0
    for size in range(len(x), 0, -1):
        for free in combinations(range(len(x)), size):
            if all(any(e and i not in free for i, e in enumerate(lead)) for lead in leads):
                best = size
                break
        if best:
            break
    return best - 1


def test_intro_ideal_dimension_matches_sympy_groebner():
    sympy = pytest.importorskip("sympy")
    arr = generate_intro_fixture(1).arrangement
    x = sympy.symbols(" ".join(arr.var_names))
    exprs = [sympy.sympify(f.to_text(arr.var_names).replace("^", "**")) for f in arr.forms]
    rng = random.Random(7)
    subsets = [tuple(sorted(rng.sample(range(arr.q), k))) for k in (1, 2, 2, 3, 3, 3, 4, 4)]
    subsets += [(0, 1, 2)]  # the three conics through one common point
    for subset in subsets:
        ours = ideal_dimension(Ideal([arr.forms[j] for j in subset], nvars=arr.M + 1))
        assert ours == _sympy_dimension(sympy, [exprs[j] for j in subset], x), subset
