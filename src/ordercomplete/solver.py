"""Solving T(A) = F over completions.

Given any map T from a bare set X into a poset Y, identifying elements
with equal images yields a quotient X_T on which the order of Y pulls
back; the induced class map is then an order isomorphic embedding into
Y.  Completing both sides extends T to a map T# between cut lattices,
and the equation T#(A) = F becomes decidable:

    solvable  <=>  sup of the images below F  ==  inf of the images above F

with the unique solution (the extension is injective on cuts) given by
the sup of the lower family, equal to the inf of the upper family.
Deciding it needs only the images of the quotient's cuts: their sup is
the closure of their union and their inf their intersection, so the
completion of Y is built only for checks that walk all of its cuts.

Finite carriers often have minima and maxima, which the general theory
deliberately excludes; in particular the lower family can be genuinely
empty when the empty set is not a cut of the quotient.  Reports carry
explicit flags for those situations instead of hiding them behind the
empty-family sup/inf conventions (least cut, full carrier).
"""

from __future__ import annotations

from functools import cached_property

from .completion import (
    CompletedPoset,
    Cut,
    DEFAULT_MAX_CUTS,
    _first_decrease,
    _trusted,
    is_cut,
    macneille_completion,
)
from .errors import InvalidCut, OrderCompletionError, ParentMismatch, UnknownElement
from .mapext import PosetMap, _pulled_back_order, extension_cut_map
from .poset import (
    CarrierSet,
    Poset,
    Subset,
    _Record,
    _join,
    _meet,
    has_maximum,
    has_minimum,
)


class AssumptionFlags(_Record):
    """Where a finite instance departs from the no-minimum/no-maximum setting."""

    quotient_has_minimum: bool
    quotient_has_maximum: bool
    codomain_has_minimum: bool
    codomain_has_maximum: bool
    empty_set_in_quotient_completion: bool
    empty_set_in_codomain_completion: bool


class EquationInstance(_Record):
    """A map T : X -> Y and the cut cap; everything else is read off T.

    ``classes`` are the fibers of T in first-appearance order, ``quotient``
    is X_T with each class labeled by its first member, and ``t_approx``
    the class map into Y.  ``images[i]`` is the codomain cut mask T# sends
    ``quotient_completion.cut_masks[i]`` to; the codomain completion is
    built only by the checks that walk every cut of Y, under ``max_cuts``.
    """

    t: PosetMap
    max_cuts: int = DEFAULT_MAX_CUTS

    def __post_init__(self) -> None:
        if self.t.source.arity == 0:
            raise UnknownElement("the domain must be nonvoid")

    @cached_property
    def domain(self) -> CarrierSet:
        return self.t.source

    @cached_property
    def codomain(self) -> Poset:
        return self.t.target

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        fibers: dict[int, list[int]] = {}
        for i, image in enumerate(self.t.assignment):
            fibers.setdefault(image, []).append(i)
        # filled in carrier order, so class order follows first appearance
        return tuple(tuple(members) for members in fibers.values())

    @cached_property
    def t_approx(self) -> PosetMap:
        class_images = tuple(self.t.assignment[members[0]] for members in self.classes)
        labels = tuple(self.domain.labels[members[0]] for members in self.classes)
        # the pulled-back order of distinct images is a partial order
        up_masks = _pulled_back_order(self.codomain, class_images)
        order = _trusted(Poset, labels=labels, up_masks=up_masks)
        return PosetMap(order, self.codomain, class_images)

    @cached_property
    def quotient(self) -> Poset:
        return self.t_approx.source

    @cached_property
    def quotient_completion(self) -> CompletedPoset:
        return macneille_completion(self.quotient, max_cuts=self.max_cuts)

    @cached_property
    def images(self) -> tuple[int, ...]:
        return extension_cut_map(self.t_approx, self.quotient_completion)

    @cached_property
    def codomain_completion(self) -> CompletedPoset:
        return macneille_completion(self.codomain, max_cuts=self.max_cuts)

    @cached_property
    def assumption_flags(self) -> AssumptionFlags:
        return AssumptionFlags(
            quotient_has_minimum=has_minimum(self.quotient),
            quotient_has_maximum=has_maximum(self.quotient),
            codomain_has_minimum=has_minimum(self.codomain),
            codomain_has_maximum=has_maximum(self.codomain),
            empty_set_in_quotient_completion=self.quotient_completion.empty_set_is_cut,
            # {}^ul = Y^l holds the minimum, so {} is a cut exactly without one
            empty_set_in_codomain_completion=not has_minimum(self.codomain),
        )


def build_equation(
    domain: CarrierSet,
    codomain: Poset,
    t: PosetMap,
    max_cuts: int = DEFAULT_MAX_CUTS,
) -> EquationInstance:
    """The instance of T, with every quotient cut A mapped to its image
    (T(A))^ul, so a cut cap on the quotient is raised here."""
    if t.source != domain or t.target != codomain:
        raise ParentMismatch("map does not go from the given domain to the codomain")
    instance = EquationInstance(t, max_cuts)
    embedding = instance.quotient_completion.embedding

    # principal cuts must land on principal cuts of the class images
    for i, image in enumerate(instance.t_approx.assignment):
        if instance.images[embedding[i]] != codomain.down_masks[image]:
            raise OrderCompletionError(
                "extension broke on a principal cut; this is a bug"
            )
    return instance


class EmptyFamilyFlags(_Record):
    lower: bool
    upper: bool


class SolveReport(_Record):
    """Everything the solvability criterion looked at, not just the verdict."""

    target: Cut
    solvable: bool
    solution: Cut | None
    sup_of_images: Cut
    inf_of_images: Cut
    lower_family: tuple[Cut, ...]
    upper_family: tuple[Cut, ...]
    empty_family_flags: EmptyFamilyFlags
    assumption_flags: AssumptionFlags


def solve(instance: EquationInstance, target: Subset) -> SolveReport:
    """Decide T#(A) = F and construct the solution when one exists.

    ``target`` must be a cut of the codomain; anything else is rejected
    rather than silently closed.
    """
    if not is_cut(instance.codomain, target):
        raise InvalidCut("the right hand side must be a cut of the codomain")
    f_mask = target.mask

    qc = instance.quotient_completion
    order = qc.parent
    codomain = instance.codomain
    qmasks = qc.cut_masks
    images = instance.images
    lower = [i for i, image in enumerate(images) if image & ~f_mask == 0]
    upper = [i for i, image in enumerate(images) if f_mask & ~image == 0]
    sup_mask = _join(codomain, [images[i] for i in lower])
    meet = _meet(codomain, [images[i] for i in upper])
    solvable = sup_mask == meet

    solution: Cut | None = None
    if solvable:
        from_lower = _join(order, [qmasks[i] for i in lower])
        from_upper = _meet(order, [qmasks[i] for i in upper])
        if from_lower != from_upper:
            raise OrderCompletionError(
                "sup of the lower family differs from inf of the upper family; "
                "this is a bug"
            )
        solution = _trusted(Cut, parent=order, mask=from_lower)
        if instance.images[qc.index_of(solution)] != f_mask:
            raise OrderCompletionError(
                "constructed solution does not map onto the target; this is a bug"
            )

    return SolveReport(
        target=_trusted(Cut, parent=codomain, mask=f_mask),
        solvable=solvable,
        solution=solution,
        sup_of_images=_trusted(Cut, parent=codomain, mask=sup_mask),
        inf_of_images=_trusted(Cut, parent=codomain, mask=meet),
        lower_family=tuple(_trusted(Cut, parent=order, mask=qmasks[i]) for i in lower),
        upper_family=tuple(_trusted(Cut, parent=order, mask=qmasks[i]) for i in upper),
        empty_family_flags=EmptyFamilyFlags(lower=not lower, upper=not upper),
        assumption_flags=instance.assumption_flags,
    )


class GlobalReport(_Record):
    """Surjectivity character of T# over the whole codomain completion."""

    covers_embedded_codomain: bool
    image_is_whole_completion: bool
    order_isomorphism: bool | None
    image_size: int
    completion_sizes: tuple[int, int]
    assumption_flags: AssumptionFlags

    @property
    def flags_agree(self) -> bool:
        return self.covers_embedded_codomain == self.image_is_whole_completion


def global_character(instance: EquationInstance) -> GlobalReport:
    """Check whether every embedded codomain element (equivalently, every
    cut of the codomain completion) is hit by T#, and when the image is
    everything, that T# is an order isomorphism."""
    qc = instance.quotient_completion
    cc = instance.codomain_completion
    image_set = set(instance.images)

    covers_embedded = image_set.issuperset(instance.codomain.down_masks)
    image_is_all = len(image_set) == cc.cut_count

    order_iso: bool | None = None
    if image_is_all:
        # a bijection is an order isomorphism when it and its inverse are
        # increasing, and both orders are the transitive closures of
        # their covers
        order_iso = len(instance.images) == cc.cut_count
        if order_iso:
            inverse = dict(zip(instance.images, qc.cut_masks))
            order_iso = (
                _first_decrease(qc, instance.images) is None
                and _first_decrease(cc, [inverse[m] for m in cc.cut_masks]) is None
            )

    return GlobalReport(
        covers_embedded_codomain=covers_embedded,
        image_is_whole_completion=image_is_all,
        order_isomorphism=order_iso,
        image_size=len(image_set),
        completion_sizes=(qc.cut_count, cc.cut_count),
        assumption_flags=instance.assumption_flags,
    )
