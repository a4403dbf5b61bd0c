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
from .mapext import PosetMap, extension_cut_map
from .poset import (
    CarrierSet,
    Poset,
    Subset,
    _Record,
    _closure_mask,
    has_maximum,
    has_minimum,
)


class QuotientPoset(_Record):
    """Fibers of a map, ordered by pulling back the codomain order.

    Classes are labeled by their representative (first member in carrier
    order); ``classes[i]`` lists the member indices of class i.
    """

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    order: Poset


class AssumptionFlags(_Record):
    """Where a finite instance departs from the no-minimum/no-maximum setting."""

    quotient_has_minimum: bool
    quotient_has_maximum: bool
    codomain_has_minimum: bool
    codomain_has_maximum: bool
    empty_set_in_quotient_completion: bool
    empty_set_in_codomain_completion: bool


class EquationInstance(_Record):
    """A map T : X -> Y with its quotient, the quotient's completion and T#.

    ``images[i]`` is the codomain cut mask T# sends the quotient cut
    ``quotient_completion.cut_masks[i]`` to.  Deciding and solving need
    only these masks; the codomain completion is built on first use, by
    the checks that walk every cut of Y, under the same ``max_cuts``.
    """

    domain: CarrierSet
    codomain: Poset
    t: PosetMap
    quotient: QuotientPoset
    t_approx: PosetMap
    quotient_completion: CompletedPoset
    images: tuple[int, ...]
    max_cuts: int = DEFAULT_MAX_CUTS

    @cached_property
    def codomain_completion(self) -> CompletedPoset:
        return macneille_completion(self.codomain, max_cuts=self.max_cuts)

    @cached_property
    def assumption_flags(self) -> AssumptionFlags:
        return AssumptionFlags(
            quotient_has_minimum=has_minimum(self.quotient.order),
            quotient_has_maximum=has_maximum(self.quotient.order),
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
    """Group the fibers of T, pull back the order, complete the quotient
    and map every quotient cut A to its image (T(A))^ul."""
    if t.source != domain or t.target != codomain:
        raise ParentMismatch("map does not go from the given domain to the codomain")
    if domain.arity == 0:
        raise UnknownElement("the domain must be nonvoid")

    fibers: dict[int, list[int]] = {}
    for i, image in enumerate(t.assignment):
        fibers.setdefault(image, []).append(i)
    # class order follows first appearance in the carrier
    ordered = sorted(fibers.items(), key=lambda kv: kv[1][0])
    classes = tuple(tuple(members) for _, members in ordered)
    representatives = tuple(members[0] for members in classes)
    class_images = tuple(image for image, _ in ordered)

    labels = tuple(domain.labels[r] for r in representatives)
    rows = []
    for a in class_images:
        row = 0
        for j, b in enumerate(class_images):
            if codomain.leq_index(a, b):
                row |= 1 << j
        rows.append(row)
    # the pulled-back order of distinct images is a partial order
    order = _trusted(Poset, labels=labels, up_masks=tuple(rows))
    quotient = QuotientPoset(classes, representatives, order)
    t_approx = PosetMap(order, codomain, class_images)

    quotient_completion = macneille_completion(order, max_cuts=max_cuts)
    images = extension_cut_map(t_approx, quotient_completion)

    # principal cuts must land on principal cuts of the class images
    for i, image in enumerate(class_images):
        if images[quotient_completion.embedding[i]] != codomain.down_masks[image]:
            raise OrderCompletionError(
                "extension broke on a principal cut; this is a bug"
            )

    return EquationInstance(
        domain=domain,
        codomain=codomain,
        t=t,
        quotient=quotient,
        t_approx=t_approx,
        quotient_completion=quotient_completion,
        images=images,
        max_cuts=max_cuts,
    )


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
    if target.parent != instance.codomain:
        raise ParentMismatch("target does not live in the codomain")
    if not is_cut(instance.codomain, target):
        raise InvalidCut("the right hand side must be a cut of the codomain")
    f_mask = target.mask

    qc = instance.quotient_completion
    order = qc.parent
    codomain = instance.codomain
    qmasks = qc.cut_masks
    lower: list[int] = []
    upper: list[int] = []
    union = 0
    meet = codomain.full_mask
    for i, image_mask in enumerate(instance.images):
        if image_mask & ~f_mask == 0:
            lower.append(i)
            union |= image_mask
        if f_mask & ~image_mask == 0:
            upper.append(i)
            meet &= image_mask

    sup_mask = _closure_mask(codomain, union)
    solvable = sup_mask == meet

    solution: Cut | None = None
    if solvable:
        from_lower = 0
        for i in lower:
            from_lower |= qmasks[i]
        from_lower = _closure_mask(order, from_lower)
        from_upper = order.full_mask
        for i in upper:
            from_upper &= qmasks[i]
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
