"""Maps between carriers and their extension to completions.

Any map f : X -> Y extends to the whole power set of X by sending
A to (f(A))^ul, a cut of the target, held as a target cut mask:
``extension_mask`` for one subset, ``extension_cut_map`` for every cut
of a source completion, the form ``check_bound_chain`` takes.  Nothing
here completes the target.  The extension is always monotone for
inclusion; when f is increasing it commutes with the element embeddings
on principal cuts, and when f is an order isomorphic embedding (OIE)
its restriction to the cuts of X is again an OIE.  `check boundchain`
(``checks.check_bound_chain_instance``) checks these three laws on
seeded maps.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .completion import (
    CompletedPoset,
    Cut,
    _closure_mask,
    _first_decrease,
    _trusted,
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
from .poset import Parent, Poset, Subset, _Record, _mask_members


class PosetMap(_Record):
    """A total map from a carrier (ordered or not) into a poset.

    ``assignment[i]`` is the target index of source element i.
    """

    source: Parent
    target: Poset
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
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


def extension_mask(phi: PosetMap, mask: int) -> int:
    """Target cut mask the extension sends a source subset mask to: (f(A))^ul."""
    image = 0
    for i in _mask_members(mask):
        image |= 1 << phi.assignment[i]
    return _closure_mask(phi.target, image)


def _require_ordered(phi: PosetMap) -> Poset:
    if not isinstance(phi.source, Poset):
        raise SourceNotOrdered("this check needs an order on the map's source")
    return phi.source


def is_increasing(phi: PosetMap) -> bool:
    """a <= b implies f(a) <= f(b), over all source pairs."""
    source = _require_ordered(phi)
    target = phi.target
    for i in range(source.arity):
        for j in _mask_members(source.up_masks[i]):
            if not target.leq_index(phi.assignment[i], phi.assignment[j]):
                return False
    return True


def is_oie(phi: PosetMap) -> bool:
    """Injective and a <= b iff f(a) <= f(b): an order isomorphic embedding."""
    source = _require_ordered(phi)
    target = phi.target
    if len(set(phi.assignment)) != source.arity:
        return False
    for i in range(source.arity):
        for j in range(source.arity):
            if source.leq_index(i, j) != target.leq_index(
                phi.assignment[i], phi.assignment[j]
            ):
                return False
    return True


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
    first_holds: bool
    middle_holds: bool
    last_holds: bool

    @property
    def chain_holds(self) -> bool:
        return self.first_holds and self.middle_holds and self.last_holds


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

    inf_e = inf_cuts(source, family)
    sup_e = sup_cuts(source, family)
    union = 0
    meet = target_poset.full_mask
    for member in family:
        image = mu_masks[source.index_of(member)]
        union |= image
        meet &= image
    inf_img = _trusted(Cut, parent=target_poset, mask=meet)
    sup_img = _trusted(Cut, parent=target_poset, mask=_closure_mask(target_poset, union))
    mu_inf = cuts[source.index_of(inf_e)]
    mu_sup = cuts[source.index_of(sup_e)]

    return BoundChainReport(
        mu_of_inf=mu_inf,
        inf_of_images=inf_img,
        sup_of_images=sup_img,
        mu_of_sup=mu_sup,
        first_holds=mu_inf.mask & ~inf_img.mask == 0,
        middle_holds=inf_img.mask & ~sup_img.mask == 0,
        last_holds=sup_img.mask & ~mu_sup.mask == 0,
    )
