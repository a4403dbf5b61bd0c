"""Cuts and the completion of a finite poset by cuts.

A subset A is a *cut* when A^ul = A.  The set of all cuts, ordered by
inclusion, is the smallest order-complete poset into which the original
embeds densely via x -> <x].  The cuts are the concept intents of the
context (P, P, <=), so the kernels are the standard concept-lattice
ones: enumeration intersects the cuts found so far with one principal
down-set at a time (Norris 1978), Hasse covers are the minimal closures
of a cut plus one element (Lindig 2000), each looked up by its extent:
(C + x)^u = C^u & U_x, and a cut is fixed by its extent.  Every bound
goes through the table-driven kernel of `poset`.  The reference
implementations live in `oracle`: NextClosure for the cuts and the
covers by definition, both on closures taken from the raw bound
definitions.

Values are validated once, at the boundary.  The public constructors
``Cut(...)`` and ``CompletedPoset(...)`` check everything they claim; in
particular a ``CompletedPoset`` is certified to list exactly the cuts,
so every one is complete and densely embeds its poset.  The package's
own algorithms build values that hold by construction through
``_trusted``, which skips that validation.

Canonical cut order is (cardinality, then member indices lexicographically);
all reports and file formats rely on it for reproducibility.  It is
computed by two C-level sorts of the bit-reversed masks, ``_canonical_order``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import InvalidCut, OrderCompletionError, ResourceCap
from .poset import (
    Poset,
    Subset,
    _Record,
    _closure_mask,
    _join,
    _lower_mask,
    _mask_labels,
    _meet,
    _require_same_parent,
    _setattr,
    _trusted,
    _upper_mask,
    has_maximum,
)

DEFAULT_MAX_CUTS = 4096


def cut_label(poset: Poset, mask: int) -> str:
    """Canonical printable name of a cut, e.g. ``{a,b}``."""
    return "{" + ",".join(_mask_labels(poset._label_tables, mask)) + "}"


class Cut(Subset):
    """A subset equal to its own upper-lower closure."""

    def __post_init__(self) -> None:
        Subset.__post_init__(self)
        if not isinstance(self.parent, Poset):
            raise InvalidCut("cuts require an ordered parent")
        if _closure_mask(self.parent, self.mask) != self.mask:
            raise InvalidCut(
                f"{cut_label(self.parent, self.mask)} is not closed under "
                "the upper-lower bound operators"
            )

    def label(self) -> str:
        return cut_label(self.parent, self.mask)


def is_cut(poset: Poset, subset: Subset) -> bool:
    _require_same_parent(poset, subset)
    return _closure_mask(poset, subset.mask) == subset.mask


def _reversed_masks(arity: int, masks: Iterable[int]) -> dict[int, int]:
    """``{bit-reversed mask: mask}`` for non-negative masks in the carrier:
    ``bin(mask | top)`` read backwards down to its leading 1 puts member i
    at bit ``arity - i``, above a set bit 0.  Reversal commutes with ``&``."""
    top = 1 << arity
    return {int(bin(m | top)[:1:-1], 2): m for m in masks}


def _canonical_order(by_reversal: dict[int, int]) -> tuple[int, ...]:
    """The masks of a ``_reversed_masks`` dict in canonical order.

    Of two sets of one size, the one holding the lowest element of their
    symmetric difference comes first.  Reversal makes that element the
    highest differing bit (Knuth, *TAOCP* 4A, 7.1.3), so descending
    reversed masks, stable-sorted by size, are in canonical order.
    """
    keys = sorted(by_reversal, reverse=True)
    keys.sort(key=int.bit_count)
    return tuple(map(by_reversal.__getitem__, keys))


class CompletedPoset(_Record):
    """All cuts of a poset in canonical order.

    The constructor certifies that the list is exactly the set of cuts: each
    listed mask is closed, and the list holds the full carrier and
    ``D_x & C`` for every principal down-set D_x and listed cut C.  Every
    cut is an intersection of principal down-sets, so none is missing,
    and the first missing one in canonical order is named otherwise.
    """

    parent: Poset
    cut_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        _setattr(self, "cut_masks", tuple(self.cut_masks))
        for mask in self.cut_masks:
            if mask & ~self.parent.full_mask:
                raise InvalidCut(f"mask {mask} in a completion lies outside the carrier")
            if _closure_mask(self.parent, mask) != mask:
                raise InvalidCut(
                    f"{cut_label(self.parent, mask)} listed in a completion "
                    "but is not a cut"
                )
        ordered = _canonical_order(_reversed_masks(self.parent.arity, self.cut_masks))
        if len(ordered) != len(self.cut_masks):
            raise InvalidCut("duplicate cut in completion")
        if ordered != self.cut_masks:
            raise InvalidCut("completion cuts are not in canonical order")
        required = {d & m for d in set(self.parent.down_masks) for m in self.cut_masks}
        required.add(self.parent.full_mask)
        missing = required.difference(self._mask_index)
        if missing:
            first = _canonical_order(_reversed_masks(self.parent.arity, missing))[0]
            raise InvalidCut(f"completion misses the cut {cut_label(self.parent, first)}")

    @property
    def cut_count(self) -> int:
        return len(self.cut_masks)

    @cached_property
    def cuts(self) -> tuple[Cut, ...]:
        return tuple(_trusted(Cut, parent=self.parent, mask=m) for m in self.cut_masks)

    @cached_property
    def _mask_index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.cut_masks)}

    @cached_property
    def embedding(self) -> tuple[int, ...]:
        """``embedding[i]`` is the index of the principal cut of element i."""
        try:
            return tuple(map(self._mask_index.__getitem__, self.parent.down_masks))
        except KeyError:
            raise OrderCompletionError("a principal cut is not listed; this is a bug") from None

    @property
    def empty_set_is_cut(self) -> bool:
        return self.cut_masks[0] == 0

    def index_of(self, cut: Subset) -> int:
        _require_same_parent(self.parent, cut)
        try:
            return self._mask_index[cut.mask]
        except KeyError:
            raise InvalidCut(
                f"{cut_label(self.parent, cut.mask)} is not a cut of this completion"
            ) from None

    def cut_labels(self) -> tuple[str, ...]:
        return tuple(cut_label(self.parent, m) for m in self.cut_masks)


def macneille_completion(poset: Poset, max_cuts: int = DEFAULT_MAX_CUTS) -> CompletedPoset:
    """Enumerate every cut of the poset.

    Every cut is an intersection of principal down-sets (the empty
    intersection is the full carrier), so adding one distinct down-set at
    a time and intersecting it with every cut found so far yields them
    all.  Raises ResourceCap as soon as the cut count exceeds
    ``max_cuts`` (the completion can be exponential in arity); each step
    at most doubles the count, so the work before that is O(n * cap).
    """
    found = _reversed_masks(poset.arity, [poset.full_mask])
    for reversed_down, down in _reversed_masks(poset.arity, poset.down_masks).items():
        found.update({r & reversed_down: c & down for r, c in found.items()})
        if len(found) > max_cuts:
            raise ResourceCap(f"completion exceeds cut cap {max_cuts}")

    return _trusted(CompletedPoset, parent=poset, cut_masks=_canonical_order(found))


def sup_cuts(completion: CompletedPoset, family: Iterable[Subset]) -> Cut:
    """Least upper bound of a cut family: (union)^ul.

    The empty family yields the least cut, i.e. the closure of {}.
    """
    masks = [completion.cut_masks[completion.index_of(cut)] for cut in family]
    return _trusted(Cut, parent=completion.parent, mask=_join(completion.parent, masks))


def inf_cuts(completion: CompletedPoset, family: Iterable[Subset]) -> Cut:
    """Greatest lower bound of a cut family: the plain intersection.

    The empty family yields the full carrier, the greatest cut.
    """
    masks = [completion.cut_masks[completion.index_of(cut)] for cut in family]
    return _trusted(Cut, parent=completion.parent, mask=_meet(completion.parent, masks))


class MacNeilleReport(_Record):
    """Outcome of the structural verification of a completion.

    Completeness and order density are invariants of ``CompletedPoset``
    and need no field; the report covers the embedding.
    ``inf_side_empty`` names the cuts with no element above them, whose
    inf family is empty and whose equality rests on the empty-meet
    convention: only the full carrier, and only without a maximum.
    """

    embedding_ok: bool
    inf_side_empty: tuple[str, ...]
    failures: tuple[str, ...]
    exhaustive = True  # not a field: the check is exact; perfbench/tracing.py reads it


def verify_macneille(completion: CompletedPoset) -> MacNeilleReport:
    """Check that the embedding x -> D_x keeps existing bounds.

    Completeness needs no check here: ``CompletedPoset`` certifies that
    it lists exactly the cuts, so sups and infs of arbitrary cut
    families exist in it.  Density holds for every cut C: C is a
    down-set, so the union of the D_x with x in C is C, and the
    intersection of the D_x with x in C^u is C^ul = C.  The ``Poset``
    axioms make x -> D_x an order embedding: x <= y exactly when D_x is
    contained in D_y, and D_x = D_y only when x = y.

    The embedding keeps every sup and inf that exists, and this needs no
    scan of element subsets.  If S has the sup s, so S^u = U_s (the
    principal up-set), the union of the D_a for a in S has the same
    upper bounds, so its closure is (U_s)^l = D_s; dually, if S has the
    inf t, the intersection of the D_a is S^l = D_t.  So checking
    (D_x)^u = U_x and (U_x)^l = D_x for each x suffices (MacNeille,
    *Partially ordered sets*, Trans. AMS 42, 1937; Davey & Priestley,
    *Introduction to Lattices and Order*, 2nd ed., 2002, ch. 7).  The
    check is exact and takes 2n kernel calls for n elements, so
    ``exhaustive`` is always true.
    """
    poset = completion.parent
    failures = []
    for x in range(poset.arity):
        down, up = poset.down_masks[x], poset.up_masks[x]
        if _upper_mask(poset, down) != up or _lower_mask(poset, up) != down:
            failures.append(f"principal sets of {poset.labels[x]!r} are not mutual bounds")
    # a proper cut C has C^u nonempty, since otherwise C = C^ul is the
    # full carrier; the full carrier has an element above it exactly
    # when there is a maximum
    top = has_maximum(poset)
    return MacNeilleReport(
        embedding_ok=not failures,
        inf_side_empty=() if top else (cut_label(poset, poset.full_mask),),
        failures=tuple(failures[:8]),
    )


def _cover_edges(completion: CompletedPoset) -> Iterator[tuple[int, int]]:
    """Index pairs (i, j) of the covers C_i < C_j of the cut lattice, in cut
    order, then by the last element x generating C_j as cl(C_i + x).

    The covers of C are its minimal closures cl(C + x), x not in C, found
    with Lindig's test: cl(C + x) is minimal unless cl(C + x) - C - {x}
    meets the elements still taken to generate minimal closures.  Each is
    one dict probe, not a closure: (C + x)^u = C^u & U_x is an extent, and
    a cut A is fixed by its extent, A = A^ul (Ganter & Wille 1999, ch. 1).
    """
    poset = completion.parent
    masks = completion.cut_masks
    extents = [_upper_mask(poset, mask) for mask in masks]
    by_extent = {extent: j for j, extent in enumerate(extents)}
    bits = [(1 << x, up) for x, up in enumerate(poset.up_masks)]
    try:  # around the loop, so the cover kernel pays nothing for the guard
        for i, (mask, extent) in enumerate(zip(masks, extents)):
            minimal = poset.full_mask & ~mask
            for bit, up in bits:
                if bit & mask:
                    continue
                j = by_extent[extent & up]
                if minimal & masks[j] & ~mask & ~bit:
                    minimal &= ~bit
                else:
                    yield i, j
    except KeyError:
        raise OrderCompletionError("a closure is not a listed cut; this is a bug") from None


def _first_decrease(
    completion: CompletedPoset, images: Sequence[int]
) -> tuple[int, int] | None:
    """First cover (i, j) of ``_cover_edges`` along which a map, given as
    one mask per cut of the completion, does not keep inclusion, or None."""
    for i, j in _cover_edges(completion):
        if images[i] & ~images[j]:
            return i, j
    return None


def to_dot(completion: CompletedPoset) -> str:
    """Hasse diagram of the completion as DOT text.

    Principal (embedded) cuts are drawn with a double border.
    """
    poset = completion.parent
    principal = set(completion.embedding)
    lines = ["digraph completion {", "  rankdir=BT;", '  node [shape=box];']
    for i, mask in enumerate(completion.cut_masks):
        label = cut_label(poset, mask).replace('"', '\\"')
        extra = ", peripheries=2" if i in principal else ""
        lines.append(f'  c{i} [label="{label}"{extra}];')
    for i, j in sorted(_cover_edges(completion)):
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
