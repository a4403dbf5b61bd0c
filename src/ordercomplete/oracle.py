"""Naive reference implementations for cross-checking the fast paths.

Everything here enumerates, rescans and recomputes from the raw
definitions on purpose.  What it shares with the fast paths: the Poset
value type, whose relation rows are read directly and whose derived
operators are never called, and the return containers ``Subset`` and
``Cut``.  Constructing a ``Cut`` validates it with the fast closure
kernel, so a result the two sides disagree on raises instead of
passing.  Used by the test suite and the `check` command, never by the
production operations.
"""

from __future__ import annotations

from typing import Iterable, Sequence
from weakref import WeakKeyDictionary

from .completion import CompletedPoset, Cut
from .errors import MultipleSolutions, NoBound, ResourceCap
from .poset import Poset, Subset
from .solver import EquationInstance

BRUTE_MAX_ARITY = 16  # boolean(4), a 16-element lattice, is in the check corpus


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
    """All cuts by scanning every one of the 2^n subsets."""
    n = poset.arity
    if n > BRUTE_MAX_ARITY:
        raise ResourceCap(f"brute enumeration refuses arity {n} > {BRUTE_MAX_ARITY}")
    out = []
    for mask in range(1 << n):
        if brute_closure(poset, mask) == mask:
            out.append(Subset(poset, mask))
    out.sort(key=lambda s: (len(_members(s.mask)), _members(s.mask)))
    return out


def brute_bound(
    completion: CompletedPoset, family: Iterable[Subset], which: str
) -> Cut:
    """Least upper / greatest lower bound by scanning the whole cut list."""
    if which not in ("sup", "inf"):
        raise ValueError(f"which must be 'sup' or 'inf', got {which!r}")
    member_masks = []
    for c in family:
        completion.index_of(c)  # parent + membership check
        member_masks.append(c.mask)
    if which == "sup":
        candidates = [
            m
            for m in completion.cut_masks
            if all(mem & ~m == 0 for mem in member_masks)
        ]
        for c in candidates:
            if all(c & ~other == 0 for other in candidates):
                return Cut(completion.parent, c)
    else:
        candidates = [
            m
            for m in completion.cut_masks
            if all(m & ~mem == 0 for mem in member_masks)
        ]
        for c in candidates:
            if all(other & ~c == 0 for other in candidates):
                return Cut(completion.parent, c)
    raise NoBound(f"no {which} exists; the cut lattice is not complete (bug)")


def brute_covers(masks: Sequence[int]) -> list[tuple[int, int]]:
    """Cover edges (i, j) of the inclusion order on a family of masks.

    Tests every pair against every third mask, so O(k^3).
    """
    n = len(masks)
    covers = []
    for i in range(n):
        for j in range(n):
            if i == j or masks[i] & ~masks[j]:
                continue
            if any(
                k not in (i, j)
                and masks[i] & ~masks[k] == 0
                and masks[k] & ~masks[j] == 0
                for k in range(n)
            ):
                continue
            covers.append((i, j))
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


def brute_solve(instance: EquationInstance, target: Subset) -> Cut | None:
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
    return Cut(instance.quotient, matches[0])
