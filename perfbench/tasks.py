"""Task kinds, their inputs and the reference comparison for the benchmark.

A task is one answer a user asks for: one README CLI command, run in-process
through `nochka.cli.main(argv)` on files in the worker's scratch directory,
or one library call that a script under `scripts/` makes.  Each task has a
`kind`, JSON `params` and the `expect`ed output recorded from the seed commit
by `make_refs.py`.  Every call goes through a module attribute
(`nochka.cli.main`, `nochka.geometry.hilbert_function`, ...) so that the
traced run sees the wrappers it installs there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import nochka.cli
import nochka.curves
import nochka.fixtures
import nochka.geometry
import nochka.nevanlinna
import nochka.rank_core

FLOAT_REL_TOL = 1e-9
# Absolute floor for quantities that are numerical noise by construction,
# such as the first-main-theorem deviations (about 1e-12 at the seed).
FLOAT_ABS_TOL = 1e-9


def to_json(value):
    """Round-trip through JSON text, with the CLI's encoding of Fractions and complexes."""
    return json.loads(json.dumps(value, default=nochka.cli._jsonable))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Context:
    """Inputs a worker builds once at set-up: files in its scratch directory
    (the process's working directory), parsed arrangements and curves, and
    position verdicts rebuilt from stored oracle tables."""

    def __init__(self, inputs: dict):
        files = inputs.get("files", {})
        for name, text in files.items():
            Path(name).write_text(text)
        self.arrangements = {name: nochka.geometry.parse_arrangement(text)
                             for name, text in files.items() if name.endswith(".arrangement")}
        self.curves = {name: nochka.curves.parse_curve(text)
                       for name, text in files.items() if name.endswith(".curve")}
        self.positions = {}
        for name, table in inputs.get("oracles", {}).items():
            arr = self.arrangements[name]
            oracle = nochka.rank_core.RankOracle(arr.q, arr.n, arr.N, tuple(map(int, table)))
            self.positions[name] = nochka.geometry.check_subgeneral_position(arr, oracle=oracle)
        self.pencil = nochka.fixtures.pencil_lines_arrangement()


# --- task kinds: (call, view) pairs.  `call` is timed; `view` turns its raw
# result into the JSON value compared against the reference.

def _call_cli(params, ctx):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = nochka.cli.main(list(params["argv"]))
    return code, out.getvalue()


def _view_cli(raw, params, ctx):
    code, text = raw
    try:
        payload = json.loads(text)
    except ValueError:
        payload = text
    files = {}
    for name in params.get("files", ()):
        path = Path(name)
        files[name] = sha256(path.read_text()) if path.exists() else None
    return {"rc": code, "out": payload, "files": files}


def _call_matroid(params, ctx):
    vectors = [[Fraction(x) for x in v] for v in params["vectors"]]
    oracle = nochka.rank_core.linear_matroid_oracle(vectors, params["N"])
    report = nochka.rank_core.validate_rank_oracle(oracle)
    weights = nochka.rank_core.nochka_weights(oracle)
    return oracle, report, weights


def _view_matroid(raw, params, ctx):
    oracle, report, weights = raw
    return to_json({"oracle": sha256(nochka.rank_core.format_oracle(oracle)),
                    "validation": report.as_dict(), "weights": weights.as_dict()})


def _call_hilbert_function(params, ctx):
    return nochka.geometry.hilbert_function(ctx.arrangements[params["arr"]], params["m"])


def _call_verify_hilbert(params, ctx):
    return nochka.geometry.verify_hilbert_lower_bound(
        ctx.pencil, params["m"], [Fraction(c) for c in params["costs"]], params["subset"])


def _call_lift(params, ctx):
    curve = nochka.curves.parse_curve(params["curve"])
    return nochka.nevanlinna.lift_curve(curve, ctx.pencil, params["m"])


def _view_lift(raw, params, ctx):
    return to_json({**raw.as_dict(),
                    "coordinates": sha256("\n".join(c.to_text() for c in raw.coordinates))})


def _call_smt_exp(params, ctx):
    return nochka.nevanlinna.smt_report(nochka.fixtures.exp_curve(),
                                        ctx.arrangements[params["arr"]],
                                        Fraction(params["epsilon"]), params["radii"])


def _call_smt_poly(params, ctx):
    return nochka.nevanlinna.smt_report(ctx.curves[params["curve"]],
                                        ctx.arrangements[params["arr"]],
                                        Fraction(params["epsilon"]), params["radii"],
                                        position=ctx.positions[params["arr"]])


def _call_sweep(params, ctx):
    ratio = (params["rmax"] / params["rmin"]) ** (1 / max(params["steps"] - 1, 1))
    radii = [params["rmin"] * ratio ** k for k in range(params["steps"])]
    return nochka.nevanlinna.smt_report(nochka.fixtures.parabola_curve(), ctx.pencil,
                                        Fraction(params["epsilon"]), radii, truncations=2)


def _view_as_dict(raw, params, ctx):
    return to_json(raw.as_dict())


KINDS = {
    "cli": (_call_cli, _view_cli),
    "matroid": (_call_matroid, _view_matroid),
    "hilbert_function": (_call_hilbert_function, _view_as_dict),
    "verify_hilbert": (_call_verify_hilbert, _view_as_dict),
    "lift": (_call_lift, _view_lift),
    "smt_exp": (_call_smt_exp, _view_as_dict),
    "smt_poly": (_call_smt_poly, _view_as_dict),
    "sweep": (_call_sweep, _view_as_dict),
}


def mismatch(got, want, path: str = "") -> str | None:
    """Where `got` differs from the reference `want`, or None.

    Everything is compared exactly except floats, which must agree within
    FLOAT_REL_TOL relative (FLOAT_ABS_TOL absolute for noise-sized values).
    """
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and isinstance(want, (int, float)) \
                and not isinstance(got, bool) and not isinstance(want, bool) \
                and math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL):
            return None
        return f"{path or '/'}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return f"{path or '/'}: keys differ"
        for key in want:
            found = mismatch(got[key], want[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path or '/'}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            found = mismatch(g, w, f"{path}/{i}")
            if found:
                return found
        return None
    if type(got) is not type(want) or got != want:
        return f"{path or '/'}: {got!r} != {want!r}"
    return None


def radius_perturbations(view) -> int:
    """Rows whose quadrature radius was inflated off a zero (r_used != r)."""
    if not isinstance(view, dict):
        return 0
    out = view.get("out", view)
    if not isinstance(out, dict):
        return 0
    count = 0
    for row in out.get("rows", ()):
        count += sum(1 for t in row.get("targets", ()) if t["r_used"] != row["r"])
    if "radii_used" in out:
        count += sum(1 for r, u in zip(out["radii"], out["radii_used"]) if r != u)
    return count
