"""Per-layer spans recorded from the benchmark's side of nochka's functions.

`Tracer.install()` wraps each traced function once and puts the wrapper at
every name that refers to it: the defining module, every `nochka` module
that imported it by name (for example both `nochka.geometry.ideal_dimension`
and `nochka.poly.ideal_dimension`), and the class for methods.
`uninstall()` puts the originals back.  A span's self time is its duration
minus the durations of the traced spans it caused.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer name, defining module, attribute or Class.method)
TARGETS = [
    ("poly.groebner_basis", "nochka.poly", "groebner_basis"),
    ("poly.normal_form", "nochka.poly", "normal_form"),
    ("poly.ideal_dimension", "nochka.poly", "ideal_dimension"),
    ("poly.mul", "nochka.poly", "Polynomial.__mul__"),
    ("poly.mul", "nochka.poly", "Polynomial.__pow__"),
    ("geometry.codim_oracle", "nochka.geometry", "codim_oracle"),
    ("geometry.degree_m_vectors", "nochka.geometry", "_degree_m_vectors"),
    ("fixtures.generate_intro_fixture", "nochka.fixtures", "generate_intro_fixture"),
    ("rank_core.linear_matroid_oracle", "nochka.rank_core", "linear_matroid_oracle"),
    ("rank_core.validate_rank_oracle", "nochka.rank_core", "validate_rank_oracle"),
    ("rank_core.nochka_weights", "nochka.rank_core", "nochka_weights"),
    ("rank_core.greedy_select", "nochka.rank_core", "greedy_select"),
    ("bounds.truncation_levels", "nochka.bounds", "truncation_levels"),
    ("cli.main", "nochka.cli", "main"),
    ("linalg.echelon_insert", "nochka.linalg", "Echelon.insert"),
    ("rootfind.zeros_in_disk", "nochka.rootfind", "zeros_in_disk"),
    ("rootfind.winding_number", "nochka.rootfind", "winding_number"),
    ("rootfind.newton", "nochka.rootfind", "_newton"),
    ("rootfind.poly_roots", "nochka.rootfind", "poly_roots_with_multiplicity"),
    ("curves.circle_values", "nochka.curves", "ProjectiveCurve.circle_values"),
    ("nevanlinna.circle_average", "nochka.nevanlinna", "_circle_average"),
    ("nevanlinna.characteristic", "nochka.nevanlinna", "characteristic"),
    ("nevanlinna.zero_divisor", "nochka.nevanlinna", "zero_divisor"),
    ("nevanlinna.cartan_ru_check", "nochka.nevanlinna", "cartan_ru_check"),
    ("univar.squarefree_decomposition", "nochka.univar", "squarefree_decomposition"),
]


def _count_hook(tracer, name, args, result, exc, parent):
    """Counters read at the traced boundaries, for the layers' useful-work ratios."""
    counts = tracer.counts
    if exc is not None:
        if name == "rootfind.winding_number" and type(exc).__name__ == "ContourNearZero":
            counts["rootfind.contour_retries"] += 1
        return
    if name == "geometry.codim_oracle":
        counts["geometry.codim_oracle.subsets"] += (1 << args[0].q) - 1
    elif name == "poly.ideal_dimension" and parent == "geometry.codim_oracle":
        counts["geometry.codim_oracle.computed"] += 1
    elif name == "fixtures.generate_intro_fixture":
        counts["fixtures.attempts"] += result.attempts
    elif name == "linalg.echelon_insert" and result:
        counts["linalg.echelon_insert.accepted"] += 1
    elif name == "curves.circle_values":
        counts["curves.circle_values.points"] += len(args[2])


COUNTERS = ("rootfind.contour_retries", "geometry.codim_oracle.subsets",
            "geometry.codim_oracle.computed", "fixtures.attempts",
            "linalg.echelon_insert.accepted", "curves.circle_values.points")


class Tracer:
    """Spans and counters of the current pass, and totals over committed passes."""

    def __init__(self):
        self.stack: list[list] = []   # open spans: [name, child seconds]
        self._undo: list[tuple[object, str, object]] = []
        self.calls, self.self_s, self.counts = self._zeros()
        self.total_calls, self.total_self_s, self.total_counts = self._zeros()

    @staticmethod
    def _zeros():
        return ({name: 0 for name, _, _ in TARGETS}, {name: 0.0 for name, _, _ in TARGETS},
                {name: 0 for name in COUNTERS})

    def commit(self) -> None:
        """Add the current pass to the totals and start a new pass."""
        for mine, total in ((self.calls, self.total_calls), (self.self_s, self.total_self_s),
                            (self.counts, self.total_counts)):
            for key, value in mine.items():
                total[key] += value
        self.discard()

    def discard(self) -> None:
        self.calls, self.self_s, self.counts = self._zeros()

    def span(self, name: str, fn):
        """`fn` wrapped in a span named `name`."""
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                _count_hook(self, name, args, None, exc, parent)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            _count_hook(self, name, args, result, None, parent)
            return result

        return wrapper

    def install(self) -> None:
        for _, module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "nochka" or key.startswith("nochka."))]
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.span(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self.span(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round layer metrics over the `rounds` committed passes."""
        per = 1 / rounds
        calls, self_s, counts = self.total_calls, self.total_self_s, self.total_counts
        out: dict[str, tuple[float, str]] = {}
        for name in dict.fromkeys(n for n, _, _ in TARGETS):
            out[f"{name}.calls"] = (calls[name] * per, "1/round")
            out[f"{name}.s"] = (self_s[name] * per, "s/round")

        def ratio(num, den):
            return num / den if den else 0.0

        out["geometry.codim_oracle.computed_ratio"] = (ratio(
            counts["geometry.codim_oracle.computed"], counts["geometry.codim_oracle.subsets"]),
            "ratio")
        out["fixtures.accept_ratio"] = (ratio(calls["fixtures.generate_intro_fixture"],
                                              counts["fixtures.attempts"]), "ratio")
        out["linalg.echelon_insert.accept_ratio"] = (ratio(
            counts["linalg.echelon_insert.accepted"], calls["linalg.echelon_insert"]), "ratio")
        out["curves.circle_values.points"] = (counts["curves.circle_values.points"] * per,
                                              "1/round")
        out["rootfind.contour_retries"] = (counts["rootfind.contour_retries"] * per, "1/round")
        return out
