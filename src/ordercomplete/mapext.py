"""Maps between carriers and their extension to completions.

Any map f : X -> Y extends to the whole power set of X by sending
A to (f(A))^ul, a cut of the target, held as a target cut mask:
``extension_mask`` for one subset, ``extension_cut_map`` for every cut
of a source completion, the form ``check_bound_chain`` takes;
``_preimage_mask`` goes back, from a target subset to f^-1 of it.  Nothing
here completes the target.  The extension is always monotone for
inclusion; when f is increasing it commutes with the element embeddings
on principal cuts, and when f is an order isomorphic embedding (OIE)
its restriction to the cuts of X is again an OIE.  `check boundchain`
(``checks.check_bound_chain_instance``) checks these three laws on
seeded maps.  A map keeps only its image tables, the rows of (f(A))^u,
which ``poset`` builds and reads like its own: an image costs one lookup
per 8 source elements plus one closure.
"""

from __future__ import annotations

from functools import cached_property
from operator import and_
from typing import Mapping, Sequence

from .completion import (
    CompletedPoset,
    Cut,
    _first_decrease,
    cut_label,
    inf_cuts,
    sup_cuts,
)
from .errors import (
    EmptyFamily,
    NotIncreasing,
    ParentMismatch,
    SourceNotOrdered,
    UnknownElement,
)
from .poset import Parent, Poset, Subset, _Record, _join, _lower_mask, _meet, _row_tables
from .poset import _setattr, _table_and, _trusted


class PosetMap(_Record):
    """A total map from a carrier (ordered or not) into a poset.

    ``assignment[i]`` is the target index of source element i.
    """

    source: Parent
    target: Poset
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        _setattr(self, "assignment", tuple(self.assignment))
        if len(self.assignment) != self.source.arity:
            raise UnknownElement("map must assign an image to every source element")
        for i in self.assignment:
            if not 0 <= i < self.target.arity:
                raise UnknownElement(f"image index {i} out of target range")

    @classmethod
    def from_names(
        cls, source: Parent, target: Poset, mapping: Mapping[str, str]
    ) -> "PosetMap":
        extra = set(mapping) - set(source.labels)
        if extra:
            raise UnknownElement(f"map mentions unknown source elements {sorted(extra)}")
        assignment = []
        for name in source.labels:
            if name not in mapping:
                raise UnknownElement(f"map gives no image for {name!r}")
            assignment.append(target.index(mapping[name]))
        return cls(source, target, tuple(assignment))

    @cached_property
    def _image_up_tables(self) -> tuple[tuple[int, ...], ...]:
        up = self.target.up_masks
        return _row_tables([up[j] for j in self.assignment], self.target.full_mask, and_)


def extension_mask(phi: PosetMap, mask: int) -> int:
    """Target cut mask the extension sends a source subset mask to: (f(A))^ul."""
    if mask & ~phi.source.full_mask:
        raise UnknownElement("subset mask references elements outside the map's source")
    return _lower_mask(phi.target, _table_and(phi._image_up_tables, phi.target.full_mask, mask))


def _preimage_mask(phi: PosetMap, mask: int) -> int:
    """Source mask of f^-1(B) for a target subset mask B."""
    return sum(1 << i for i, image in enumerate(phi.assignment) if mask >> image & 1)


def _pulled_back_order(target: Poset, assignment: Sequence[int]) -> tuple[int, ...]:
    """Row i holds the j with f(i) <= f(j): the target order pulled back."""
    return tuple(
        sum(1 << j for j, b in enumerate(assignment) if up >> b & 1)
        for up in [target.up_masks[a] for a in assignment]
    )


def _require_ordered(phi: PosetMap) -> Poset:
    if not isinstance(phi.source, Poset):
        raise SourceNotOrdered("this check needs an order on the map's source")
    return phi.source


def is_increasing(phi: PosetMap) -> bool:
    """a <= b implies f(a) <= f(b), over all source pairs."""
    source = _require_ordered(phi)
    pulled = _pulled_back_order(phi.target, phi.assignment)
    return all(up & ~row == 0 for up, row in zip(source.up_masks, pulled))


def is_oie(phi: PosetMap) -> bool:
    """Injective and a <= b iff f(a) <= f(b): an order isomorphic embedding.

    Equal rows force injectivity: f(i) = f(j) puts j in row i and i in
    row j, which the antisymmetric source order allows only for i = j."""
    source = _require_ordered(phi)
    return source.up_masks == _pulled_back_order(phi.target, phi.assignment)


def extension_cut_map(
    phi: PosetMap, source_completion: CompletedPoset
) -> tuple[int, ...]:
    """Target cut mask of the image of every cut of the source completion."""
    if source_completion.parent != phi.source:
        raise ParentMismatch("completion does not complete the map's source")
    return tuple(extension_mask(phi, mask) for mask in source_completion.cut_masks)


class BoundChainReport(_Record):
    """The bound chain of an increasing map applied to a nonvoid family."""

    mu_of_inf: Cut
    inf_of_images: Cut
    sup_of_images: Cut
    mu_of_sup: Cut

    @property
    def chain_holds(self) -> bool:
        chain = (self.mu_of_inf, self.inf_of_images, self.sup_of_images, self.mu_of_sup)
        return all(a.mask & ~b.mask == 0 for a, b in zip(chain, chain[1:]))


def check_bound_chain(
    source: CompletedPoset,
    target_poset: Poset,
    mu_masks: Sequence[int],
    family: Sequence[Subset],
) -> BoundChainReport:
    """Check mu(inf E) <= inf mu(E) <= sup mu(E) <= mu(sup E).

    ``mu_masks[i]`` is the target cut mask mu sends ``source.cut_masks[i]``
    to, and each is validated as a cut; ``family`` must be nonvoid.  mu
    must be increasing, checked along the covers of the source cut
    lattice, whose transitive closure is inclusion.
    """
    if len(mu_masks) != source.cut_count:
        raise UnknownElement("cut map must give an image for every cut of the source")
    cuts = tuple(Cut(target_poset, mask) for mask in mu_masks)
    decrease = _first_decrease(source, mu_masks)
    if decrease is not None:
        poset = source.parent
        i, j = decrease
        raise NotIncreasing(
            f"map decreases on {cut_label(poset, source.cut_masks[i])} "
            f"<= {cut_label(poset, source.cut_masks[j])}"
        )
    if not family:
        raise EmptyFamily("the bound chain needs a nonvoid family")

    images = [mu_masks[source.index_of(member)] for member in family]
    return BoundChainReport(
        mu_of_inf=cuts[source.index_of(inf_cuts(source, family))],
        inf_of_images=_trusted(Cut, parent=target_poset, mask=_meet(target_poset, images)),
        sup_of_images=_trusted(Cut, parent=target_poset, mask=_join(target_poset, images)),
        mu_of_sup=cuts[source.index_of(sup_cuts(source, family))],
    )
