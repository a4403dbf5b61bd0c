"""Solving T(A) = F over completions.

Given any map T from a bare set X into a poset Y, identifying elements
with equal images yields a quotient X_T on which the order of Y pulls
back; the induced class map is then an order isomorphic embedding into
Y.  Completing both sides extends T to a map T# between cut lattices,
and the equation T#(A) = F becomes decidable:

    solvable  <=>  sup of the images below F  ==  inf of the images above F

with the unique solution (the extension is injective on cuts) given by
the sup of the lower family, equal to the inf of the upper family.
Deciding it needs only the pre-image P = t^-1(F) of F under the class
map t and the upper bounds t(A)^u of the quotient's cuts A.  As F is a
cut, T#(A) = t(A)^ul lies in F exactly when A lies in P, and holds F
exactly when t(A)^u lies in F^u.  P is a down-set, so the union of the
lower family is P: the sup of the images below F is t(P)^ul, the inf of
the images above F is (the union of their t(A)^u)^l.  A solution S is P
itself: t(S) lies in T#(S) = F, so S lies in P, and P lies in S, the sup
of the lower family.  So solving closes nothing in the quotient, whose
cuts serve only as a list.  Neither the image map T# nor the completion
of Y is built to solve; checks that walk all of their cuts build them on
first use.

Finite carriers often have minima and maxima, which the general theory
deliberately excludes; in particular the lower family can be genuinely
empty when the empty set is not a cut of the quotient.  Reports carry
explicit flags for those situations instead of hiding them behind the
empty-family sup/inf conventions (least cut, full carrier).
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import or_

from .completion import (
    CompletedPoset,
    Cut,
    DEFAULT_MAX_CUTS,
    _first_decrease,
    _trusted_cuts,
    is_cut,
    macneille_completion,
)
from .errors import InvalidCut, OrderCompletionError, ParentMismatch, UnknownElement
from .mapext import PosetMap, _preimage_mask, _pulled_back_order, extension_mask
from .poset import (
    CarrierSet,
    Poset,
    Subset,
    _Record,
    _lower_mask,
    _meet,
    _table_and_each,
    _trusted,
    _upper_mask,
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
    the class map into Y.  ``_image_uppers[i]`` is t(A)^u for the quotient
    cut A = ``quotient_completion.cut_masks[i]``, all the solver reads of
    T#, and ``images[i]`` the codomain cut mask t(A)^ul that T# sends A to.
    The images and the codomain completion are built only by the checks
    that walk every cut, the completion under ``max_cuts``.
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
    def _image_uppers(self) -> tuple[int, ...]:
        return tuple(_table_and_each(self.t_approx._image_up_tables, self.codomain.full_mask,
                                     self.quotient_completion.cut_masks))

    @cached_property
    def images(self) -> tuple[int, ...]:
        codomain = self.codomain
        return tuple(_table_and_each(codomain._down_tables, codomain.full_mask,
                                     self._image_uppers))

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
    """The instance of T with its quotient completed, so a cut cap on the
    quotient is raised here; the images are built on first use."""
    if t.source != domain or t.target != codomain:
        raise ParentMismatch("map does not go from the given domain to the codomain")
    instance = EquationInstance(t, max_cuts)
    qc = instance.quotient_completion
    t_approx = instance.t_approx

    # principal cuts must land on principal cuts of the class images
    for j, image in zip(qc.embedding, t_approx.assignment):
        if extension_mask(t_approx, qc.cut_masks[j]) != codomain.down_masks[image]:
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


def _criterion(instance: EquationInstance, f_mask: int) -> tuple:
    """T#(A) = F on masks, for the codomain cut mask F: the verdict, the solution
    mask or None, the sup and inf of the images, and the lower and upper family
    as quotient cut indices, all read off P = t^-1(F) and the t(A)^u.  The
    solution cl(P) is P itself: T#(cl P) = F puts t(cl P) in F, so cl P lies
    in P.  Raises OrderCompletionError on a broken invariant."""
    qc = instance.quotient_completion
    codomain = instance.codomain
    t = instance.t_approx
    qmasks = qc.cut_masks
    uppers = instance._image_uppers
    pre = _preimage_mask(t, f_mask)
    f_uppers = _upper_mask(codomain, f_mask)
    lower = [i for i, mask in enumerate(qmasks) if mask & ~pre == 0]
    upper = [i for i, up in enumerate(uppers) if up & ~f_uppers == 0]
    sup_images = extension_mask(t, pre)
    inf_images = _lower_mask(codomain, reduce(or_, [uppers[i] for i in upper], 0))
    solvable = sup_images == inf_images
    if solvable:
        if pre != _meet(qc.parent, [qmasks[i] for i in upper]):
            raise OrderCompletionError(
                "sup of the lower family differs from inf of the upper family; "
                "this is a bug"
            )
        if pre not in qc._mask_index or sup_images != f_mask:
            raise OrderCompletionError(
                "constructed solution does not map onto the target; this is a bug"
            )
    return solvable, pre if solvable else None, sup_images, inf_images, lower, upper


def solve(instance: EquationInstance, target: Subset) -> SolveReport:
    """Decide T#(A) = F and construct the solution when one exists.

    ``target`` must be a cut of the codomain; anything else is rejected
    rather than silently closed.
    """
    if not is_cut(instance.codomain, target):
        raise InvalidCut("the right hand side must be a cut of the codomain")
    solvable, solution, sup_mask, inf_mask, lower, upper = _criterion(instance, target.mask)
    order = instance.quotient
    codomain = instance.codomain
    qmasks = instance.quotient_completion.cut_masks
    return SolveReport(
        _trusted(Cut, parent=codomain, mask=target.mask),
        solvable,
        _trusted(Cut, parent=order, mask=solution) if solvable else None,
        _trusted(Cut, parent=codomain, mask=sup_mask),
        _trusted(Cut, parent=codomain, mask=inf_mask),
        _trusted_cuts(order, [qmasks[i] for i in lower]),
        _trusted_cuts(order, [qmasks[i] for i in upper]),
        EmptyFamilyFlags(not lower, not upper),
        instance.assumption_flags,
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
        # a bijection onto the cuts is an order isomorphism when it and its
        # inverse are increasing, and both orders are the transitive
        # closures of their covers
        order_iso = len(instance.images) == cc.cut_count and image_set == set(cc.cut_masks)
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
