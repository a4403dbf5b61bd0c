"""Per-op correctness gate, run outside the timed region.

Each check takes the op's captured stdout and raises ``GateError`` when
the output is wrong.  The checks recompute what they need from the input
data with the naive ``ordercomplete.oracle`` or with the small bitmask
helpers below; they never trust the fast paths they are checking.
"""

from __future__ import annotations

import json
import re
from functools import cached_property

from ordercomplete import build_equation, jsonio
from ordercomplete.oracle import brute_closure, brute_solve
from ordercomplete.poset import Poset, Subset


class GateError(Exception):
    """An op's output or exit code failed its check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _members(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def _canonical_key(mask: int) -> tuple[int, tuple[int, ...]]:
    return (bin(mask).count("1"), _members(mask))


def _mask(poset: Poset, names) -> int:
    mask = 0
    for name in names:
        _require(name in poset.labels, f"unknown element {name!r} in output")
        mask |= 1 << poset.index(name)
    return mask


def _closure(poset: Poset, mask: int) -> int:
    """A^ul on masks, from the principal up- and down-sets."""
    upper = poset.full_mask
    for i in _members(mask):
        upper &= poset.up_masks[i]
    lower = poset.full_mask
    for i in _members(upper):
        lower &= poset.down_masks[i]
    return lower


def check_cut_list(poset: Poset, masks: list[int]) -> None:
    """The list is exactly the set of cuts, in canonical order.

    Certificate: every listed mask is closed, the full carrier is listed
    and the list is closed under intersection with every principal
    down-set.  Every cut C is the intersection of the principal down-sets
    of its upper bounds, so such a list contains every cut.
    """
    listed = set(masks)
    _require(len(listed) == len(masks), "a cut is listed twice")
    for mask in masks:
        _require(brute_closure(poset, mask) == mask, f"listed set {mask:#x} is not a cut")
    _require(poset.full_mask in listed, "the full carrier is not listed")
    for mask in masks:
        for down in poset.down_masks:
            _require(down & mask in listed, f"cut list misses {down & mask:#x}")
    _require(masks == sorted(masks, key=_canonical_key), "cuts are not in canonical order")


def check_complete(poset: Poset, out: str) -> None:
    data = json.loads(out)
    completion = data["completion"]
    _require(completion["parent"]["elements"] == list(poset.labels), "parent elements changed")
    masks = [_mask(poset, cut) for cut in completion["cuts"]]
    check_cut_list(poset, masks)
    _require(data["cut_count"] == len(masks), "cut_count disagrees with the cut list")
    _require(data["empty_set_is_cut"] == (0 in masks), "empty_set_is_cut is wrong")
    embedding = completion["embedding"]
    _require(set(embedding) == set(poset.labels), "embedding keys differ from the elements")
    for i, name in enumerate(poset.labels):
        _require(masks[embedding[name]] == poset.down_masks[i], f"embedding of {name!r} is wrong")
    verification = data["verification"]
    for key in ("complete", "embedding", "density"):
        _require(verification[key] is True, f"verification.{key} is not true")


_NODE = re.compile(r'  c(\d+) \[label="\{(.*)\}"(, peripheries=2)?\];')
_EDGE = re.compile(r"  c(\d+) -> c(\d+);")


def _upper_covers(poset: Poset, mask: int) -> set[int]:
    """Upper neighbours of a cut: the minimal closures of C plus one element."""
    candidates = {
        _closure(poset, mask | (1 << x))
        for x in range(poset.arity)
        if not (mask >> x) & 1
    }
    return {c for c in candidates if not any(o != c and o & ~c == 0 for o in candidates)}


def check_export(poset: Poset, out: str) -> None:
    lines = out.splitlines()
    _require(lines[:3] == ["digraph completion {", "  rankdir=BT;", "  node [shape=box];"], "bad DOT header")
    _require(lines[-1] == "}", "bad DOT trailer")
    nodes: dict[int, int] = {}
    principal: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for line in lines[3:-1]:
        node = _NODE.fullmatch(line)
        edge = _EDGE.fullmatch(line)
        if node:
            names = node.group(2).split(",") if node.group(2) else []
            nodes[int(node.group(1))] = _mask(poset, names)
            if node.group(3):
                principal.add(nodes[int(node.group(1))])
        else:
            _require(edge is not None, f"unexpected DOT line {line!r}")
            edges.add((int(edge.group(1)), int(edge.group(2))))
    _require(sorted(nodes) == list(range(len(nodes))), "nodes are not numbered c0..c(k-1)")
    masks = [nodes[i] for i in range(len(nodes))]
    check_cut_list(poset, masks)
    _require(principal == set(poset.down_masks), "principal cuts are not the marked nodes")
    index = {m: i for i, m in enumerate(masks)}
    want = {(i, index[c]) for i, m in enumerate(masks) for c in _upper_covers(poset, m)}
    _require(edges <= want, "an edge is not a cover")
    _require(edges == want, "a cover edge is missing")


class Equation:
    """An equation input, built on first use for the solve checks."""

    def __init__(self, data: dict):
        self.data = data

    @cached_property
    def instance(self):
        domain, codomain, t = jsonio.equation_from_data(self.data)
        return build_equation(domain, codomain, t)

    def target(self, target_data: dict) -> Subset:
        return jsonio.target_from_data(target_data, self.instance.codomain)


def check_solve(equation: Equation, target_data: dict, pullback: dict | None, exit_code: int, out: str) -> None:
    """Verdict and solution against brute force, or, for identity maps
    (``pullback`` maps codomain names to domain names), against the
    pulled-back target."""
    report = json.loads(out)
    codomain = equation.instance.codomain
    target = equation.target(target_data)
    _require(_mask(codomain, report["target"]) == target.mask, "report names another target")
    _require(exit_code == (0 if report["solvable"] else 1), "exit code disagrees with the verdict")
    if pullback is not None:
        want = {pullback[name] for name in target.names()}
        _require(report["solvable"], "identity equation reported unsolvable")
        _require(set(report["solution"]) == want, "solution is not the pulled-back target")
        return
    reference = brute_solve(equation.instance, target)
    _require(report["solvable"] == (reference is not None), "verdict differs from brute force")
    if reference is not None:
        _require(report["solution"] == list(reference.names()), "solution differs from brute force")


def check_suite(out: str) -> None:
    first = out.splitlines()[0] if out else ""
    _require(first.startswith("PASS "), f"check suite did not pass: {first!r}")


def check_gen(expected: dict, out: str) -> None:
    _require(json.loads(out) == expected, "generated instance differs from the family")


def check_silent(out: str) -> None:
    _require(out == "", "an error exit printed to stdout")
