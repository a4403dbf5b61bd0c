"""Maps between carriers and their extension to completions.

Any map f : X -> Y extends to the whole power set of X by sending
A to (f(A))^ul, a cut of the target.  The extension is always monotone
for inclusion; when f is increasing it commutes with the element
embeddings on principal cuts, and when f is an order isomorphic
embedding (OIE) its restriction to the cuts of X is again an OIE.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from .completion import (
    CompletedPoset,
    Cut,
    _closure_mask,
    cut_label,
    inf_cuts,
    macneille_completion,
    sup_cuts,
)
from .errors import (
    EmptyFamily,
    InvalidCut,
    NotIncreasing,
    ParentMismatch,
    SourceNotOrdered,
    UnknownElement,
)
from .poset import Parent, Poset, Subset, _mask_members, _submasks


@dataclass(frozen=True)
class PosetMap:
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

    def apply(self, label: str) -> str:
        return self.target.labels[self.assignment[self.source.index(label)]]

    def image_mask(self, source_mask: int) -> int:
        out = 0
        for i in _mask_members(source_mask):
            out |= 1 << self.assignment[i]
        return out


@dataclass(frozen=True)
class ExtendedMap:
    """A map together with the completion of its target.

    Applying it to any source subset yields a cut of the target.
    """

    base: PosetMap
    target_completion: CompletedPoset

    def __post_init__(self) -> None:
        if self.target_completion.parent != self.base.target:
            raise ParentMismatch("completion does not complete the map's target")


def extend(base: PosetMap, max_cuts: int | None = None) -> ExtendedMap:
    """Convenience: complete the target and wrap the map."""
    if max_cuts is None:
        completion = macneille_completion(base.target)
    else:
        completion = macneille_completion(base.target, max_cuts=max_cuts)
    return ExtendedMap(base, completion)


def apply_extension(ext: ExtendedMap, subset: Subset) -> Cut:
    """Image of a source subset under the extension: (f(A))^ul."""
    if subset.parent != ext.base.source:
        raise ParentMismatch("subset does not belong to the map's source")
    target = ext.base.target
    return Cut(target, _closure_mask(target, ext.base.image_mask(subset.mask)))


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
    ext: ExtendedMap, source_completion: CompletedPoset
) -> tuple[int, ...]:
    """Index map: cut of the source completion -> cut of the target completion."""
    if source_completion.parent != ext.base.source:
        raise ParentMismatch("completion does not complete the map's source")
    target = ext.base.target
    lookup = ext.target_completion._mask_index
    out = []
    for mask in source_completion.cut_masks:
        image = _closure_mask(target, ext.base.image_mask(mask))
        try:
            out.append(lookup[image])
        except KeyError:
            raise InvalidCut(
                "target completion is missing an image cut; was it enumerated fully?"
            ) from None
    return tuple(out)


@dataclass(frozen=True)
class ExtensionLawsReport:
    """Extension sanity: monotone always, stronger properties when earned.

    ``principal_commutes`` and ``oie_on_cuts`` are None when the
    precondition (increasing, respectively OIE) does not hold, i.e. the
    check is not applicable rather than failed.
    """

    extension_monotone: bool
    principal_commutes: bool | None
    oie_on_cuts: bool | None
    exhaustive: bool
    failures: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return (
            self.extension_monotone
            and self.principal_commutes is not False
            and self.oie_on_cuts is not False
        )


def _iter_subset_pairs(n: int, limit: int, seed: int):
    """Pairs (small, big) with small <= big as masks; sampled past the limit."""
    if 3**n <= limit:
        for big in range(1 << n):
            for small in _submasks(big):
                yield small, big
        return
    rng = random.Random(seed)
    full = (1 << n) - 1
    for _ in range(limit):
        big = rng.randint(0, full)
        small = big & rng.randint(0, full)
        yield small, big


def check_extension_laws(phi: PosetMap, limit: int = 4096, seed: int = 0) -> ExtensionLawsReport:
    """Verify the extension of a map behaves as the theory promises."""
    ext = extend(phi)
    target = phi.target
    n = phi.source.arity
    failures: list[str] = []
    exhaustive = 3**n <= limit

    monotone = True
    for small, big in _iter_subset_pairs(n, limit, seed):
        a = _closure_mask(target, phi.image_mask(small))
        b = _closure_mask(target, phi.image_mask(big))
        if a & ~b:
            monotone = False
            failures.append(
                f"extension not monotone on masks {small:#x} <= {big:#x}"
            )
            break

    principal_commutes: bool | None = None
    oie_on_cuts: bool | None = None
    if isinstance(phi.source, Poset):
        source = phi.source
        if is_increasing(phi):
            principal_commutes = True
            for i in range(source.arity):
                image = _closure_mask(target, phi.image_mask(source.down_masks[i]))
                expected = target.down_masks[phi.assignment[i]]
                if image != expected:
                    principal_commutes = False
                    failures.append(
                        f"extension of <{source.labels[i]}] is not "
                        f"<{target.labels[phi.assignment[i]]}]"
                    )
        if is_oie(phi):
            oie_on_cuts = True
            source_completion = macneille_completion(source)
            images = extension_cut_map(ext, source_completion)
            cmasks = source_completion.cut_masks
            tmasks = ext.target_completion.cut_masks
            k = len(cmasks)
            if k * k <= limit:
                pairs = ((i, j) for i in range(k) for j in range(k))
            else:
                rng = random.Random(seed + 1)
                pairs = ((rng.randrange(k), rng.randrange(k)) for _ in range(limit))
                exhaustive = False
            for i, j in pairs:
                lhs = cmasks[i] & ~cmasks[j] == 0
                rhs = tmasks[images[i]] & ~tmasks[images[j]] == 0
                if lhs != rhs:
                    oie_on_cuts = False
                    failures.append(
                        f"cut extension not an OIE on "
                        f"{cut_label(source, cmasks[i])}, {cut_label(source, cmasks[j])}"
                    )
                    break

    return ExtensionLawsReport(
        extension_monotone=monotone,
        principal_commutes=principal_commutes,
        oie_on_cuts=oie_on_cuts,
        exhaustive=exhaustive,
        failures=tuple(failures[:8]),
    )


CutMap = Union[Mapping[int, int], Callable[[Cut], Cut], Sequence[int]]


def _normalize_cut_map(
    source: CompletedPoset, target: CompletedPoset, mu: CutMap
) -> tuple[int, ...]:
    k = source.cut_count
    if callable(mu):
        out = []
        for cut in source.cuts:
            image = mu(cut)
            out.append(target.index_of(image))
        return tuple(out)
    if isinstance(mu, Mapping):
        images = [mu[i] for i in range(k)]
    else:
        images = list(mu)
        if len(images) != k:
            raise UnknownElement("cut map must cover every cut of the source")
    for i in images:
        if not 0 <= i < target.cut_count:
            raise UnknownElement(f"cut index {i} out of target completion range")
    return tuple(images)


@dataclass(frozen=True)
class BoundChainReport:
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
    target: CompletedPoset,
    mu: CutMap,
    family: Sequence[Subset],
) -> BoundChainReport:
    """Check mu(inf E) <= inf mu(E) <= sup mu(E) <= mu(sup E).

    ``mu`` must be increasing between the two cut lattices (checked over
    all cut pairs) and ``family`` nonvoid.
    """
    images = _normalize_cut_map(source, target, mu)
    smasks = source.cut_masks
    tmasks = target.cut_masks
    k = len(smasks)
    for i in range(k):
        for j in range(k):
            if smasks[i] & ~smasks[j] == 0:
                if tmasks[images[i]] & ~tmasks[images[j]]:
                    raise NotIncreasing(
                        f"map decreases on {cut_label(source.parent, smasks[i])} "
                        f"<= {cut_label(source.parent, smasks[j])}"
                    )
    if not family:
        raise EmptyFamily("the bound chain needs a nonvoid family")

    inf_e = inf_cuts(source, family)
    sup_e = sup_cuts(source, family)
    image_cuts = [target.cuts[images[source.index_of(c)]] for c in family]
    inf_img = inf_cuts(target, image_cuts)
    sup_img = sup_cuts(target, image_cuts)
    mu_inf = target.cuts[images[source.index_of(inf_e)]]
    mu_sup = target.cuts[images[source.index_of(sup_e)]]

    return BoundChainReport(
        mu_of_inf=mu_inf,
        inf_of_images=inf_img,
        sup_of_images=sup_img,
        mu_of_sup=mu_sup,
        first_holds=mu_inf.mask & ~inf_img.mask == 0,
        middle_holds=inf_img.mask & ~sup_img.mask == 0,
        last_holds=sup_img.mask & ~mu_sup.mask == 0,
    )
