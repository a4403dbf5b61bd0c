"""Naive reference implementations for cross-checking the fast paths.

Everything here enumerates, rescans and recomputes from the raw
definitions on purpose.  What it shares with the fast paths: the Poset
value type, whose relation rows are read directly and whose derived
operators are never called, and the ``Subset`` return container, whose
constructor only tests that a mask lies in its carrier.  Bounds come
and go as masks, so no result runs the fast closure kernel, and a fault
there shows as a disagreement, not an error.  Used by the test suite
and the `check` command, never by the production operations.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Iterable
from weakref import WeakKeyDictionary

from .completion import CompletedPoset
from .errors import MultipleSolutions, NoBound
from .poset import Poset, Subset
from .solver import EquationInstance


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def brute_upper(poset: Poset, mask: int) -> int:
    """Upper bounds by the raw definition: scan every element."""
    up = poset.up_masks
    members = _members(mask)
    out = 0
    for x in range(poset.arity):
        if all((up[a] >> x) & 1 for a in members):
            out |= 1 << x
    return out


def brute_lower(poset: Poset, mask: int) -> int:
    """Lower bounds by the raw definition: scan every element."""
    up = poset.up_masks
    members = _members(mask)
    out = 0
    for x in range(poset.arity):
        if all((up[x] >> a) & 1 for a in members):
            out |= 1 << x
    return out


def brute_closure(poset: Poset, mask: int) -> int:
    return brute_lower(poset, brute_upper(poset, mask))


def brute_cuts(poset: Poset) -> list[Subset]:
    """All cuts, by Ganter's NextClosure over ``brute_closure``: the cut after
    A in lectic order is the first closure of (A below i) + {i}, for i from
    the last element down, that adds nothing below i; at most n closures a cut."""
    mask = brute_closure(poset, 0)
    masks = [mask]
    while mask != poset.full_mask:  # the full carrier is the last cut
        for i in reversed(range(poset.arity)):
            if mask >> i & 1:
                continue
            below = (1 << i) - 1
            closed = brute_closure(poset, mask & below | 1 << i)
            if closed & ~mask & below == 0:
                break
        mask = closed
        masks.append(mask)
    masks.sort(key=lambda m: (len(_members(m)), _members(m)))
    return [Subset(poset, m) for m in masks]


def brute_bound(completion: CompletedPoset, masks: Iterable[int], which: str) -> int:
    """Least upper / greatest lower bound of cut masks, by one scan of the cut list.

    A cut lies above (below) every member exactly when it holds their union
    (lies in their intersection), and a family of sets has a least (greatest)
    member exactly when its intersection (union) is one of them.
    """
    if which not in ("sup", "inf"):
        raise ValueError(f"which must be 'sup' or 'inf', got {which!r}")
    cuts = completion.cut_masks
    if which == "sup":
        union = reduce(or_, masks, 0)
        bounds = [m for m in cuts if union & ~m == 0]
        bound = reduce(and_, bounds, completion.parent.full_mask)
    else:
        common = reduce(and_, masks, completion.parent.full_mask)
        bounds = [m for m in cuts if m & ~common == 0]
        bound = reduce(or_, bounds, 0)
    if bound not in bounds:
        raise NoBound(f"no {which} exists; the cut lattice is not complete (bug)")
    return bound


def brute_covers(completion: CompletedPoset) -> list[tuple[int, int]]:
    """Cover edges (i, j) of the cut lattice, by definition: the upper
    covers of a cut are the minimal closures of the cut plus one element."""
    poset = completion.parent
    index = {mask: i for i, mask in enumerate(completion.cut_masks)}
    covers = []
    for i, mask in enumerate(completion.cut_masks):
        closures = {brute_closure(poset, mask | 1 << x)
                    for x in range(poset.arity) if not mask >> x & 1}
        covers += sorted((i, index[c]) for c in closures
                         if not any(d != c and d & ~c == 0 for d in closures))
    return covers


# one table per map and cap: equal instances share it across brute_solve
# calls (one per target), and it dies with the instance that built it
_image_tables: WeakKeyDictionary = WeakKeyDictionary()


def _brute_image_table(instance: EquationInstance) -> tuple[tuple[int, int], ...]:
    """(quotient cut mask, codomain image mask) pairs, all by definition."""
    table = _image_tables.get(instance)
    if table is not None:
        return table
    order = instance.quotient
    codomain = instance.codomain
    assignment = instance.t_approx.assignment
    pairs = []
    for cut in brute_cuts(order):
        image = 0
        for i in _members(cut.mask):
            image |= 1 << assignment[i]
        pairs.append((cut.mask, brute_closure(codomain, image)))
    table = _image_tables[instance] = tuple(pairs)
    return table


def brute_solve(instance: EquationInstance, target: Subset) -> Subset | None:
    """Try every quotient cut; return the unique one mapping onto the target.

    Raises MultipleSolutions if two distinct cuts map onto it, which
    would mean the extension lost injectivity.
    """
    matches = [
        mask
        for mask, image in _brute_image_table(instance)
        if image == target.mask
    ]
    if len(matches) > 1:
        raise MultipleSolutions(
            f"{len(matches)} distinct cuts map onto the same target"
        )
    if not matches:
        return None
    return Subset(instance.quotient, matches[0])
