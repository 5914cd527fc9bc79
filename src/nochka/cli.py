"""Command-line front end.

Subcommands map one-to-one onto library operations; every run is
deterministic given its inputs and seed.  Exit codes: 0 ok, 2 parse or
usage error, 3 resource budget exceeded, 4 a mathematical check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from .curves import parse_coordinate, parse_curve
from .errors import ParseError, ResourceBudgetError, VerificationError
from .fixtures import generate_intro_fixture
from .geometry import (check_subgeneral_position, codim_oracle, format_arrangement,
                       hilbert_function, hilbert_weight, parse_arrangement)
from .nevanlinna import cartan_ru_check, jensen_check, smt_report, wronskian_divisor_check
from .poly import DEFAULT_GB_STEPS
from .rank_core import (build_filtration, format_oracle, greedy_select,
                        nochka_weights, parse_oracle, validate_rank_oracle)

SCHEMA = "nochka-report/1"


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _json(value) -> str:
    return json.dumps(value, indent=2, default=_jsonable) + "\n"


def _payload(args, body: dict) -> dict:
    """A command's report: the schema and the command name, then its body."""
    return {"schema": SCHEMA, "command": args.command, **body}


def _emit(payload: dict, fmt: str) -> None:
    tsv = payload.pop("tsv", None)
    if fmt == "json":
        sys.stdout.write(_json(payload))
    elif tsv is not None:
        sys.stdout.write(tsv)
    else:
        for key, value in payload.items():
            if key != "schema":
                sys.stdout.write(f"{key}\t{json.dumps(value, default=_jsonable)}\n")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational, got {text!r}") from None


def _list(text: str, convert, kind: str) -> list:
    """Comma-separated values through `convert`; a bad one is a ParseError naming `kind`."""
    try:
        return [convert(p.strip()) for p in text.split(",") if p.strip()]
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a comma-separated {kind} list, got {text!r}") from None


# Each handler returns (body, ok): `main` prints the body under the schema and
# command name, or nothing when the body is None; `ok` False exits 4.

def _cmd_validate_rank(args) -> tuple[dict, bool]:
    oracle = parse_oracle(_read(args.oracle))
    report = validate_rank_oracle(oracle)
    return {"q": oracle.q, "n": oracle.n, "N": oracle.N, **report.as_dict()}, report.ok


def _cmd_weights(args) -> tuple[dict, bool]:
    oracle = parse_oracle(_read(args.oracle))
    weights = nochka_weights(oracle)
    return {"q": oracle.q, "n": oracle.n, "N": oracle.N, **weights.as_dict()}, True


def _cmd_filtration(args) -> tuple[dict, bool]:
    return build_filtration(parse_oracle(_read(args.oracle))).as_dict(), True


def _cmd_greedy(args) -> tuple[dict, bool]:
    oracle = parse_oracle(_read(args.oracle))
    weights = nochka_weights(oracle)
    subset = _list(args.subset, int, "integer")
    if len(set(subset)) != len(subset):
        raise ParseError(f"repeated index in --subset {args.subset!r}")
    costs = _list(args.costs, Fraction, "rational")
    chosen = greedy_select(oracle, weights, subset, costs)
    lhs = sum((weights.omega[j - 1] * costs[j - 1] for j in subset), Fraction(0))
    rhs = sum((costs[j - 1] for j in chosen), Fraction(0))
    return {"subset": subset, "selected": list(chosen), "weighted_sum": str(lhs),
            "selected_sum": str(rhs)}, True


def _arrangement(args):
    return parse_arrangement(_read(args.arr), gb_steps=args.budget_gb_steps)


def _cmd_position_check(args) -> tuple[dict, bool]:
    arr = _arrangement(args)
    report = check_subgeneral_position(arr)
    return {"q": arr.q, "n": arr.n, "degrees": list(arr.degrees),
            **report.as_dict()}, report.ok


def _cmd_oracle_dump(args) -> tuple[dict | None, bool]:
    text = format_oracle(codim_oracle(_arrangement(args)))
    if args.out:
        _write(args.out, text)
        return {"written": args.out}, True
    sys.stdout.write(text)
    return None, True


def _cmd_hilbert(args) -> tuple[dict, bool]:
    return hilbert_function(_arrangement(args), args.m).as_dict(), True


def _cmd_hilbert_weight(args) -> tuple[dict, bool]:
    costs = _list(args.c, Fraction, "rational")
    result = hilbert_weight(_arrangement(args), args.m, costs)
    return {"c": [str(c) for c in costs], **result.as_dict()}, True


def _cmd_bounds(args) -> tuple[dict, bool]:
    params = bounds_mod.ParamSet(args.n, args.degV, args.N, args.q,
                                 tuple(_list(args.degrees, int, "integer")),
                                 _rational(args.epsilon))
    result = bounds_mod.truncation_levels(params, hilbert_value=args.H, hilbert_m=args.m)
    return {"epsilon": str(params.epsilon), **result.as_dict()}, True


def _cmd_jensen(args) -> tuple[dict, bool]:
    phi = parse_coordinate(args.phi)
    report = jensen_check(phi, _list(args.radii, float, "number"), tol=args.quad_tol)
    return {"phi": args.phi, "quad_tol": args.quad_tol, **report.as_dict()}, True


def _cmd_wronskian_check(args) -> tuple[dict, bool]:
    report = wronskian_divisor_check(parse_curve(_read(args.curve)).coordinates)
    return report.as_dict(), report.ok


def _cmd_cartan_check(args) -> tuple[dict, bool]:
    arr = _arrangement(args)
    curve = parse_curve(_read(args.curve))
    report = cartan_ru_check(curve, arr.forms, _rational(args.epsilon),
                             _list(args.radii, float, "number"), tol=args.quad_tol)
    return {"quad_tol": args.quad_tol, **report.as_dict(), "tsv": report.as_tsv()}, True


def _cmd_smt_report(args) -> tuple[dict, bool]:
    arr = _arrangement(args)
    curve = parse_curve(_read(args.curve))
    truncations = None
    if args.truncation == "inf":
        truncations = math.inf
    elif args.truncation:
        try:
            truncations = int(args.truncation)
        except ValueError:
            truncations = 0
        if truncations < 1:
            raise ParseError("--truncation must be an integer >= 1 or `inf`, "
                             f"got {args.truncation!r}")
    report = smt_report(curve, arr, _rational(args.epsilon), _list(args.radii, float, "number"),
                        truncations=truncations, tol=args.quad_tol)
    body = report.as_dict()
    if args.out:
        _write(args.out, _json(_payload(args, body)))
        body["written"] = args.out
    return {**body, "tsv": report.as_tsv()}, True


def _cmd_gen_fixture(args) -> tuple[dict, bool]:
    fixture = generate_intro_fixture(args.seed)
    out_dir = Path(args.out or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot write {out_dir}: {exc}") from None
    arr_path = out_dir / f"intro-{args.seed}.arrangement"
    manifest_path = out_dir / f"intro-{args.seed}.manifest.json"
    _write(arr_path, format_arrangement(fixture.arrangement))
    _write(manifest_path, _json(fixture.manifest))
    return {"seed": args.seed, "attempts": fixture.attempts,
            "arrangement": str(arr_path), "manifest": str(manifest_path),
            "coefficient": fixture.manifest["coefficient"]}, True


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="json")

    parser = argparse.ArgumentParser(prog="nochka",
                                     description="Nochka weights, position checks, and "
                                                 "second-main-theorem numerics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-rank", parents=[common])
    p.add_argument("--oracle", required=True)
    p.set_defaults(handler=_cmd_validate_rank)

    p = sub.add_parser("weights", parents=[common])
    p.add_argument("--oracle", required=True)
    p.set_defaults(handler=_cmd_weights)

    p = sub.add_parser("filtration", parents=[common])
    p.add_argument("--oracle", required=True)
    p.set_defaults(handler=_cmd_filtration)

    p = sub.add_parser("greedy", parents=[common])
    p.add_argument("--oracle", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--costs", required=True)
    p.set_defaults(handler=_cmd_greedy)

    p = sub.add_parser("position-check", parents=[common])
    p.add_argument("--arr", required=True)
    p.set_defaults(handler=_cmd_position_check)

    p = sub.add_parser("oracle-dump", parents=[common])
    p.add_argument("--arr", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_oracle_dump)

    p = sub.add_parser("hilbert", parents=[common])
    p.add_argument("--arr", required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_hilbert)

    p = sub.add_parser("hilbert-weight", parents=[common])
    p.add_argument("--arr", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(handler=_cmd_hilbert_weight)

    p = sub.add_parser("bounds", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degV", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--H", type=int)
    p.add_argument("--m", type=int)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("jensen", parents=[common])
    p.add_argument("--phi", required=True)
    p.add_argument("--radii", required=True)
    p.set_defaults(handler=_cmd_jensen)

    p = sub.add_parser("wronskian-check", parents=[common])
    p.add_argument("--curve", required=True)
    p.set_defaults(handler=_cmd_wronskian_check)

    p = sub.add_parser("cartan-check", parents=[common])
    p.add_argument("--arr", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--radii", required=True)
    p.set_defaults(handler=_cmd_cartan_check)

    p = sub.add_parser("smt-report", parents=[common])
    p.add_argument("--arr", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--radii", required=True)
    p.add_argument("--truncation", default=None,
                   help="integer level or `inf` (default: n in hyperplane mode, inf otherwise)")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_smt_report)

    p = sub.add_parser("gen-fixture", parents=[common])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_gen_fixture)

    for name in ("position-check", "oracle-dump", "hilbert", "hilbert-weight",
                 "cartan-check", "smt-report"):
        sub.choices[name].add_argument("--budget-gb-steps", type=int, default=DEFAULT_GB_STEPS,
                                       dest="budget_gb_steps")
    for name in ("jensen", "cartan-check", "smt-report"):
        sub.choices[name].add_argument("--quad-tol", type=float, default=1e-9, dest="quad_tol")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        body, ok = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    if body is not None:
        _emit(_payload(args, body), args.format)
    return 0 if ok else 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
