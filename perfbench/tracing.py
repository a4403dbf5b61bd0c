"""Outside-in layer trace.

The tracer wraps public functions of the ``ordercomplete`` modules at run
time, from this file, and records one span per call: name, start, end,
parent span and op id.  Nothing inside ``src/`` is instrumented.  Spans
stay in memory; ``run.py`` writes them to a side file when the run ends.

A layer's time is the self time of its spans: duration minus the part
its child spans cover, so the layer times of one op add up to no more
than the op's wall time.
"""

from __future__ import annotations

import statistics
import sys
import time
from functools import wraps

# span name -> (module, function) pairs wrapped under that name
LAYERS = {
    "jsonio.parse": [
        ("ordercomplete.cli", "_read_json"),
        ("ordercomplete.jsonio", "poset_from_data"),
        ("ordercomplete.jsonio", "equation_from_data"),
        ("ordercomplete.jsonio", "map_from_data"),
        ("ordercomplete.jsonio", "target_from_data"),
    ],
    "jsonio.serialize": [
        ("ordercomplete.jsonio", "completed_to_data"),
        ("ordercomplete.jsonio", "solve_report_to_data"),
        ("ordercomplete.jsonio", "dumps"),
    ],
    "poset.build": [("ordercomplete.poset", "build_poset")],
    "completion.enumerate": [("ordercomplete.completion", "macneille_completion")],
    "completion.verify": [("ordercomplete.completion", "verify_macneille")],
    "completion.to_dot": [("ordercomplete.completion", "to_dot")],
    "solver.build_equation": [("ordercomplete.solver", "build_equation")],
    "solver.solve": [("ordercomplete.solver", "solve")],
    "solver.global_character": [("ordercomplete.solver", "global_character")],
    "checks.cutcalc": [("ordercomplete.checks", "check_bound_calculus")],
    "checks.macneille": [("ordercomplete.checks", "check_completion")],
    "checks.theorem41": [("ordercomplete.checks", "check_equation")],
    "checks.theorem42": [("ordercomplete.checks", "check_global")],
    "oracle.brute": [
        ("ordercomplete.oracle", "brute_cuts"),
        ("ordercomplete.oracle", "brute_solve"),
        ("ordercomplete.oracle", "brute_bound"),
    ],
}


def _info(function: str, result):
    """The count a span carries, read off the wrapped call's result."""
    if function == "dumps":
        return len(result.encode("utf-8"))
    if function == "macneille_completion":
        return result.cut_count
    if function == "verify_macneille":
        return result.exhaustive
    if function == "to_dot":
        return result.count(" -> ")
    if function == "build_equation":
        return [result.quotient_completion.cut_count, result.codomain_completion.cut_count]
    if function == "solve":
        return result.solvable
    return None


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, function):
        @wraps(function)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None, "op": self._op, "info": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = function(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["info"] = _info(function.__name__, result)
            return result

        return traced

    def install(self) -> None:
        """Swap every reference to a layer function, in every loaded
        ``ordercomplete`` module, for its traced wrapper."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ordercomplete"]
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                traced = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, traced)

    def remove(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def op(self, op_id: int, call):
        """Run one op as a root ``cli.main`` span."""
        self._op = op_id
        try:
            return self._wrap("cli.main", call)()
        finally:
            self._op = None


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, list] = {}
    for span, children in zip(spans, child_time):
        name = span["name"]
        self_time[name] = self_time.get(name, 0.0) + span["end"] - span["start"] - children
        calls[name] = calls.get(name, 0) + 1
        if span["info"] is not None:
            info.setdefault(name, []).append(span["info"])

    def ratio(values) -> float:
        return sum(1 for v in values if v) / len(values) if values else 0.0

    builds = info.get("solver.build_equation", [])
    mains = [s["end"] - s["start"] for s in spans if s["name"] == "cli.main"]
    return {
        "cli.main_ms": 1000 * statistics.median(mains),
        "jsonio.parse_s": self_time.get("jsonio.parse", 0.0),
        "jsonio.parse_calls": calls.get("jsonio.parse", 0),
        "jsonio.serialize_s": self_time.get("jsonio.serialize", 0.0),
        "jsonio.out_bytes": sum(info.get("jsonio.serialize", [])),
        "poset.build_s": self_time.get("poset.build", 0.0),
        "poset.build_calls": calls.get("poset.build", 0),
        "completion.enumerate_s": self_time.get("completion.enumerate", 0.0),
        "completion.enumerate_calls": calls.get("completion.enumerate", 0),
        "completion.cuts": sum(info.get("completion.enumerate", [])),
        "completion.verify_s": self_time.get("completion.verify", 0.0),
        "completion.verify_calls": calls.get("completion.verify", 0),
        "completion.verify_exhaustive_ratio": ratio(info.get("completion.verify", [])),
        "completion.to_dot_s": self_time.get("completion.to_dot", 0.0),
        "completion.cover_edges": sum(info.get("completion.to_dot", [])),
        "solver.build_equation_s": self_time.get("solver.build_equation", 0.0),
        "solver.build_equation_calls": calls.get("solver.build_equation", 0),
        "solver.quotient_cuts": sum(q for q, _ in builds),
        "solver.codomain_cuts": sum(c for _, c in builds),
        "solver.solve_s": self_time.get("solver.solve", 0.0),
        "solver.solve_calls": calls.get("solver.solve", 0),
        "solver.solvable_ratio": ratio(info.get("solver.solve", [])),
        "solver.global_character_s": self_time.get("solver.global_character", 0.0),
        "checks.cutcalc_s": self_time.get("checks.cutcalc", 0.0),
        "checks.macneille_s": self_time.get("checks.macneille", 0.0),
        "checks.theorem41_s": self_time.get("checks.theorem41", 0.0),
        "checks.theorem42_s": self_time.get("checks.theorem42", 0.0),
        "checks.instances": sum(calls.get(f"checks.{s}", 0) for s in ("cutcalc", "macneille", "theorem41", "theorem42")),
        "oracle.brute_s": self_time.get("oracle.brute", 0.0),
    }
