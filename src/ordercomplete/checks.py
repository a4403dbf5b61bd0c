"""Verification suites: operator identities, completion structure,
closed-form sizes, the solvability criterion against exhaustive search,
the global surjectivity characterization, and the bound chain with the
laws of the extension of a map: monotone always, commuting with the
element embeddings when the map is increasing, and an order isomorphic
embedding on the cuts when the map is one.

Each check returns a list of failure strings (empty means pass) so that
both the `check` command and the test suite can share them.  Subset- and
family-indexed checks run exhaustively while 2^count <= EXHAUSTIVE_MASKS
and fall back to seeded deterministic samples of fixed size beyond, so a
fixed corpus always produces the same verdict.  Every scan is a list of
masks, ``range(2^count)`` or the sample, most read by ``_members``.
``check_bound_calculus`` reads each bound kernel once per scanned mask
into lists, indexed by the mask on the whole cube.  On a sample it reads
every mask once through ``functools.cache``, the members' down-sets off
per-byte tables, and the bounded masks in one list pass per principal
set (on the whole cube each set ANDs itself into its submasks).  Either
way the work does not depend on the cut count k.  The family sup and
inf, checked against the oracle's bound scan in
``check_completion``, see at most 2 + 2 * BOUND_SCAN_SAMPLE families, so
that work peaks at the threshold: at k = 12 cuts the oracle's one pass
over the k cuts runs on all 2^k families, and above it the work of
``check_completion`` grows about linearly in k.

Note on the full-carrier equivalence: on a carrier with a minimum, the
set of upper bounds of {minimum} is everything, so the textbook
"A^u = X iff A empty" only survives in the corrected form
"A^u = X iff A is contained in the lower bounds of X" (dually for A^l).
The corrected form degenerates to the textbook one exactly when there is
no minimum (no maximum), which the reports surface separately.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import cache, partial
from itertools import product
from operator import add
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .completion import CompletedPoset, cut_label, macneille_completion, verify_macneille
from .errors import InvalidCut, NotIncreasing
from .generators import GeneratorSpec, _random_pairs, generate, random_equation
from .mapext import PosetMap, check_bound_chain, extension_cut_map, is_increasing, is_oie
from .oracle import _brute_image_table, brute_bound, brute_cuts, brute_lower, brute_solve
from .oracle import brute_upper
from .poset import Poset, _doubled, _join, _lower_mask, _mask_labels, _mask_members, _meet
from .poset import _row_tables, _upper_mask
from .poset import build_poset, maximum_index, minimum_index
from .solver import EquationInstance, _criterion, global_character

EXHAUSTIVE_MASKS = 4096  # all subsets when 2^count fits
FAMILY_SAMPLE = 256
BOUND_SCAN_SAMPLE = 64  # cut families for the oracle's bound scan


def _index_masks(count: int, seed: int, sample_budget: int) -> Sequence[int]:
    """All index subsets, as masks, when 2^count fits EXHAUSTIVE_MASKS, a fixed sample otherwise.

    The sample holds the empty family, the full family, every singleton
    while ``count <= sample_budget`` (else a seeded ``sample_budget`` of
    them), then ``sample_budget`` seeded random families: at most
    2 + 2 * sample_budget masks, whatever the count.
    """
    if 1 << count <= EXHAUSTIVE_MASKS:
        return range(1 << count)
    rng = random.Random(seed)
    singles = range(count)
    if count > sample_budget:
        singles = sorted(rng.sample(singles, sample_budget))
    masks = [0, (1 << count) - 1] + [1 << i for i in singles]
    for _ in range(sample_budget):
        size = rng.randint(1, count)
        masks.append(sum(1 << i for i in rng.sample(range(count), size)))
    return masks


def _members(items: Sequence, masks: Sequence[int]) -> Iterable[Sequence]:
    """The items at the set bits of each mask, in order.  On the whole cube
    ``range(2^len(items))`` (a sample is always shorter) each item doubles
    the list, by the doubling step of the poset tables."""
    if len(masks) != 1 << len(items):
        return ([items[i] for i in _mask_members(m)] for m in masks)
    return _doubled([(item,) for item in items], (), add)


def _family_count(count: int, sample_budget: int) -> int:
    """How many masks ``_index_masks`` returns, without drawing the sample."""
    if 1 << count <= EXHAUSTIVE_MASKS:
        return 1 << count
    return 2 + min(count, sample_budget) + sample_budget


# ---------------------------------------------------------------- corpora


def corpus_posets(random_count: int) -> list[tuple[str, CompletedPoset]]:
    """Completions of the structured families, then of ``random_count`` random posets."""
    return list(_iter_corpus_posets(random_count))


def _iter_corpus_posets(random_count: int) -> Iterator[tuple[str, CompletedPoset]]:
    structured = (("chain", "n", range(1, 9)), ("antichain", "n", range(1, 9)),
                  ("boolean", "k", range(5)), ("divisor", "m", range(1, 61)))
    for family, param, values in structured:
        for value in values:
            spec = GeneratorSpec(family, **{param: value})
            yield f"{family}({value})", macneille_completion(generate(spec))
    densities = (0.15, 0.3, 0.5, 0.7)
    for seed in range(random_count):
        n = 2 + seed % 7  # 2 to 8 elements
        density = densities[seed % len(densities)]
        spec = GeneratorSpec("random", n=n, density=density, seed=seed)
        yield f"random(n={n},density={density},seed={seed})", macneille_completion(generate(spec))


def equation_corpus(count: int) -> list[tuple[str, EquationInstance]]:
    return list(_iter_equation_corpus(count))


def _iter_equation_corpus(count: int) -> Iterator[tuple[str, EquationInstance]]:
    return ((f"equation(seed={seed})", random_equation(seed)) for seed in range(count))


# ------------------------------------------------- operator identities


def _sampled_masks(poset: Poset) -> list[int]:
    n = poset.arity
    if (1 << n) <= EXHAUSTIVE_MASKS:
        return list(range(1 << n))
    rng = random.Random(0)
    masks = {0, poset.full_mask}
    masks.update(1 << i for i in range(n))
    masks.update(poset.down_masks)
    masks.update(poset.up_masks)
    while len(masks) < EXHAUSTIVE_MASKS:
        masks.add(rng.randint(0, poset.full_mask))
    return sorted(masks)


def _superset_and(sets: Iterable[int], masks: Sequence[int], exhaustive: bool) -> list[int]:
    """For each mask, the AND of the distinct sets that hold it, or -1 when
    none does: on the whole cube each set ANDs itself into its submasks, on
    a sorted sample it takes one pass over the masks up to it."""
    out = [-1] * len(masks)
    for s in set(sets):
        if not exhaustive:
            end, outside = bisect_right(masks, s), ~s
            out[:end] = [o if m & outside else o & s for o, m in zip(out, masks[:end])]
            continue
        sub = s
        while True:  # the submasks of s, from s down to 0 (Knuth 7.1.3)
            out[sub] &= s
            if not sub:
                break
            sub = sub - 1 & s
    return out


def _down_members(poset: Poset, masks: Sequence[int]) -> list[tuple[int, ...]]:
    """The principal down-sets of each mask's members, in element order,
    off per-byte tables of the down-sets read as ``_mask_labels`` reads labels."""
    rows = _row_tables([(d,) for d in poset.down_masks], (), add)
    return [_mask_labels(rows, m) for m in masks]


def check_bound_calculus(name: str, completion: CompletedPoset) -> list[str]:
    """Identities of the upper/lower-bound operators on one completed poset.

    The kernels are read once per scanned mask, into lists U and L.  When
    every mask is scanned, ``masks`` is ``range(2^n)``, so the lists are
    indexed by the mask and every identity is one pass over them.  Above
    that, every read goes through a ``functools.cache`` of its kernel.
    """
    poset = completion.parent
    n = poset.arity
    full = poset.full_mask
    down, up = poset.down_masks, poset.up_masks
    masks = _sampled_masks(poset)
    exhaustive = len(masks) == 1 << n
    if exhaustive:
        U = [_upper_mask(poset, m) for m in masks]
        L = [_lower_mask(poset, m) for m in masks]
        upper, lower = U.__getitem__, L.__getitem__
    else:
        upper, lower = cache(partial(_upper_mask, poset)), cache(partial(_lower_mask, poset))
        U, L = list(map(upper, masks)), list(map(lower, masks))

    # a value off the carrier would index the tables or lists out of range (or,
    # if negative, from the end), so it ends the check; above 4,096 masks the
    # closures read the kernel on masks off the scan, so they are tested too
    off = next((m for m, u, l in zip(masks, U, L) if (u | l) & ~full), None)
    if off is None:
        UL, LU = list(map(lower, U)), list(map(upper, L))
        off = next((m for m, ul, lu in zip(masks, UL, LU) if (ul | lu) & ~full), None)
    if off is not None:
        return [f"{name}: bounds leave the carrier on {off:#x}"]
    fails: list[str] = []

    # raw-definition equivalence on every mask inside one chunk of 8 elements,
    # which reads every table entry; the kernel ANDs one entry per chunk, as the
    # bounds of a union are the bounds of its parts ANDed, so this is exact
    for m in (b << c for c in range(0, n, 8) for b in range(1 << min(8, n - c))):
        if upper(m) != brute_upper(poset, m) or lower(m) != brute_lower(poset, m):
            fails.append(f"{name}: operators disagree with the double loop on {m:#x}")
            break

    # A^u = X iff A lies in X^l, and dually; masks starts with 0, where this is {}^u = X
    min_mask = lower(full)
    max_mask = upper(full)
    for m, u, l in zip(masks, U, L):
        if (u == full) != (m & ~min_mask == 0):
            fails.append(f"{name}: full-carrier test for upper bounds broke on {m:#x}")
            break
        if (l == full) != (m & ~max_mask == 0):
            fails.append(f"{name}: full-carrier test for lower bounds broke on {m:#x}")
            break

    # empty bounds exactly mean unbounded: a mask is bounded above exactly when
    # a principal down-set holds it, and the AND of those is the least cut
    # that holds it, since every cut is the intersection of the principal
    # down-sets that hold it (Davey & Priestley 2002, ch. 7); -1 for none
    above, below = (_superset_and(sets, masks, exhaustive) for sets in (down, up))
    for m, u, l, a, b in zip(masks, U, L, above, below):
        if (u == 0) == (a != -1):
            fails.append(f"{name}: boundedness above mismatched on {m:#x}")
            break
        if (l == 0) == (b != -1):
            fails.append(f"{name}: boundedness below mismatched on {m:#x}")
            break

    # antitone on inclusion: every nested pair is a chain of one-element steps,
    # so when every mask is scanned, every step (m, m + {x}) covers every pair
    if exhaustive:
        steps = [1 << x for x in range(n)]
        bad = next(((m, m | step) for m, u, l in zip(masks, U, L) for step in steps
                    if not m & step and (U[m | step] & ~u or L[m | step] & ~l)), None)
    else:
        rng = random.Random(1)
        pairs = ((big & rng.randint(0, full), big)
                 for big in rng.choices(masks, k=EXHAUSTIVE_MASKS))
        bad = next(((small, big) for small, big in pairs
                    if upper(big) & ~upper(small) or lower(big) & ~lower(small)), None)
    if bad is not None:
        fails.append(f"{name}: bounds are not antitone on {bad[0]:#x} <= {bad[1]:#x}")

    # expansion and the three-step collapse
    for m, u, l, ul, lu in zip(masks, U, L, UL, LU):
        if m & ~ul or m & ~lu:
            fails.append(f"{name}: subset not contained in its closures on {m:#x}")
            break
        if upper(ul) != u or lower(lu) != l:
            fails.append(f"{name}: triple bound operator did not collapse on {m:#x}")
            break

    # principal sets are mutual bounds (the double loop covers singletons' bounds)
    for x in range(n):
        if lower(up[x]) != down[x] or upper(down[x]) != up[x]:
            fails.append(f"{name}: principal sets are not mutual bounds at {x}")

    # closures are least cuts, below the AND above (-1, for no down-set, flags no bit)
    cut_set = set(completion.cut_masks)
    for m, ul, least in zip(masks, UL, above):
        if ul not in cut_set:
            fails.append(f"{name}: closure of {m:#x} is not a cut")
            break
        if ul & ~least:
            fails.append(f"{name}: closure of {m:#x} is not least above it")
            break
    if exhaustive and set(UL) != cut_set:
        fails.append(f"{name}: closures of all subsets do not give all cuts")

    # closure equals the sup of embedded members, the down-sets in element order
    families = _members(down, masks) if exhaustive else _down_members(poset, masks)
    for m, ul, family in zip(masks, UL, families):
        if ul != _join(poset, family):
            fails.append(f"{name}: closure is not the sup of embedded members on {m:#x}")
            break

    return fails


# ------------------------------------------------- completion structure


def check_completion(name: str, completion: CompletedPoset) -> list[str]:
    """Fast enumeration equals the oracle's NextClosure, the public constructor
    certifies the enumerated list, and the completion verifies."""
    fails: list[str] = []
    poset = completion.parent
    if [s.mask for s in brute_cuts(poset)] != list(completion.cut_masks):
        fails.append(f"{name}: enumerated cuts differ from the exhaustive scan")
    try:
        CompletedPoset(poset, completion.cut_masks)
    except InvalidCut as exc:
        fails.append(f"{name}: completion rejected: {exc}")
    report = verify_macneille(completion)
    if not report.embedding_ok:
        fails.append(f"{name}: embedding check failed: {report.failures[:2]}")
    fails.extend(_bound_keeping_failures(name, poset))

    masks = _index_masks(completion.cut_count, 0, BOUND_SCAN_SAMPLE)
    for mask, family in zip(masks, _members(completion.cut_masks, masks)):
        if _join(poset, family) != brute_bound(completion, family, "sup"):
            fails.append(f"{name}: sup disagrees with the bound scan on {_mask_members(mask)}")
            break
        if _meet(poset, family) != brute_bound(completion, family, "inf"):
            fails.append(f"{name}: inf disagrees with the bound scan on {_mask_members(mask)}")
            break
    return fails


def _bound_keeping_failures(name: str, poset: Poset) -> list[str]:
    """The embedding keeps every sup and inf of element subsets, tested on
    the table kernel off the principal sets that ``verify_macneille`` checks."""
    fails = []
    principal = poset.down_masks
    masks = _index_masks(poset.arity, 1, FAMILY_SAMPLE)
    for mask, members in zip(masks, _members(principal, masks)):
        upper, lower = _upper_mask(poset, mask), _lower_mask(poset, mask)
        if (upper | lower) & ~poset.full_mask:
            fails.append(f"{name}: bounds of {cut_label(poset, mask)} leave the carrier")
            break
        s = minimum_index(poset, upper)
        if s is not None and _join(poset, members) != principal[s]:
            fails.append(f"{name}: embedding loses the supremum of {cut_label(poset, mask)}")
        t = maximum_index(poset, lower)
        if t is not None and _meet(poset, members) != principal[t]:
            fails.append(f"{name}: embedding loses the infimum of {cut_label(poset, mask)}")
    return fails


def check_closed_forms() -> list[str]:
    """Exact completion sizes for the families where they are known: an
    antichain of n gains a bottom and a top, and a lattice completes to itself."""
    fails: list[str] = []
    for n in range(2, 11):
        poset = generate(GeneratorSpec("antichain", n=n))
        count = macneille_completion(poset).cut_count
        if count != n + 2:
            fails.append(f"antichain({n}): expected {n + 2} cuts, got {count}")
    lattices = (("chain", "n", range(1, 11)), ("boolean", "k", range(5)),
                ("divisor", "m", range(1, 61)))
    for family, param, values in lattices:
        for value in values:
            poset = generate(GeneratorSpec(family, **{param: value}))
            fails.extend(_check_self_complete(f"{family}({value})", poset))
    return fails


def _check_self_complete(name: str, poset: Poset) -> list[str]:
    """A lattice completes to itself: every cut principal, embedding an OI."""
    completion = macneille_completion(poset)
    fails = []
    if completion.cut_count != poset.arity:
        fails.append(
            f"{name}: expected {poset.arity} cuts, got {completion.cut_count}"
        )
        return fails
    if set(completion.cut_masks) != set(poset.down_masks):
        fails.append(f"{name}: embedding is not onto the cuts")
    report = verify_macneille(completion)
    if not report.embedding_ok:
        fails.append(f"{name}: embedding is not an order isomorphism")
    return fails


# ------------------------------------------------- the equation solver


def check_equation(name: str, instance: EquationInstance) -> list[str]:
    """The images and the solver verdicts on every target against exhaustive search."""
    fails: list[str] = []
    # by definition: is_oie would compare the trusted quotient with itself
    a = instance.t_approx.assignment
    quotient, codomain = instance.quotient.up_masks, instance.codomain.up_masks
    pulled_back = all(
        (quotient[i] >> j & 1) == (codomain[a[i]] >> a[j] & 1)
        for i, j in product(range(len(a)), repeat=2)
    )
    if len(set(a)) != len(a) or not pulled_back:
        fails.append(f"{name}: induced class map is not an OIE")
    qc, table = instance.quotient_completion, _brute_image_table(instance)
    index, images = qc._mask_index, instance.images
    if qc.cut_count != len(table):  # zip would stop at the shorter list
        return fails + [f"{name}: {qc.cut_count} quotient cuts, {len(table)} by the oracle"]
    # the criterion reads the images, so a wrong one ends the check here
    for mask, image, reference in zip(qc.cut_masks, images, table):
        if (mask, image) != reference:
            return fails + [f"{name}: image of {cut_label(qc.parent, mask)} is not the oracle's"]
    for target in instance.codomain_completion.cuts:
        f = target.mask
        solvable, solution, sup_images, inf_images, lower, upper = _criterion(instance, f)
        reference = brute_solve(instance, target)
        if solvable != (reference is not None):
            fails.append(
                f"{name}: verdict mismatch on {target.label()}: "
                f"criterion={solvable} search={reference is not None}"
            )
            continue
        if solvable and solution != reference.mask:
            fails.append(f"{name}: solutions differ on {target.label()}")
        if sup_images & ~f:
            fails.append(f"{name}: sup of images escapes {target.label()}")
        if f & ~inf_images:
            fails.append(f"{name}: {target.label()} escapes inf of images")
        sup_lower = _join(qc.parent, [qc.cut_masks[i] for i in lower])
        inf_upper = _meet(qc.parent, [qc.cut_masks[i] for i in upper])
        if sup_lower not in index or inf_upper not in index:
            fails.append(f"{name}: a family bound is not a quotient cut on {target.label()}")
            continue
        img_sup = images[index[sup_lower]]
        img_inf = images[index[inf_upper]]
        if sup_images & ~img_sup:
            fails.append(f"{name}: inclusion chain broke at the lower end")
        if img_sup & ~img_inf:
            fails.append(f"{name}: inclusion chain broke in the middle")
        if img_inf & ~inf_images:
            fails.append(f"{name}: inclusion chain broke at the upper end")
    return fails


def check_global(name: str, instance: EquationInstance) -> list[str]:
    """The two surjectivity conditions agree; when they hold, T# is an OI."""
    fails: list[str] = []
    report = global_character(instance)
    if not report.flags_agree:
        fails.append(
            f"{name}: embedded-coverage and whole-completion flags disagree"
        )
    if report.image_is_whole_completion:
        if report.image_size != instance.codomain_completion.cut_count:
            fails.append(f"{name}: image claimed whole but sizes differ")
        if report.order_isomorphism is not True:
            fails.append(f"{name}: surjective extension is not an order isomorphism")
    return fails


# ------------------------------------------------- increasing-map chain


def bound_chain_fixture(seed: int) -> tuple[CompletedPoset, PosetMap, tuple[int, ...], list]:
    """A seeded map phi between small posets, its extension mu to the source
    cuts as target cut masks, and a nonvoid family of source cuts.  About
    half of the maps are increasing and a few are OIEs, as the conditional
    laws of ``_extension_law_failures`` need."""
    rng = random.Random(seed)

    def small_poset(prefix: str) -> Poset:
        n = rng.randint(2, 5)
        labels = tuple(f"{prefix}{i}" for i in range(n))
        return build_poset(labels, _random_pairs(rng, labels, 0.4), "covers")

    source_poset = small_poset("s")
    target_poset = small_poset("t")
    source = macneille_completion(source_poset)
    phi = PosetMap(
        source_poset,
        target_poset,
        tuple(rng.randrange(target_poset.arity) for _ in range(source_poset.arity)),
    )
    mu = extension_cut_map(phi, source)
    size = rng.randint(1, source.cut_count)
    family = [source.cuts[i] for i in sorted(rng.sample(range(source.cut_count), size))]
    return source, phi, mu, family


def check_bound_chain_instance(seed: int) -> list[str]:
    """The bound chain and the laws of the extension on one seeded map; a
    decrease of the extension or an image rejected as a cut is a failure line."""
    source, phi, mu, family = bound_chain_fixture(seed)
    name = f"boundchain(seed={seed})"
    try:
        report = check_bound_chain(source, phi.target, mu, family)
    except NotIncreasing as exc:
        return [f"{name}: extension not monotone: {exc}"]
    except InvalidCut as exc:
        return [f"{name}: an image was rejected as a cut: {exc}"]
    fails = []
    if not report.chain_holds:
        fails.append(
            f"{name}: chain broke: "
            f"{report.mu_of_inf.label()} / {report.inf_of_images.label()} / "
            f"{report.sup_of_images.label()} / {report.mu_of_sup.label()}"
        )
    return fails + _extension_law_failures(name, source, phi, mu)


def _extension_law_failures(
    name: str, source: CompletedPoset, phi: PosetMap, mu: tuple[int, ...]
) -> list[str]:
    """When phi is increasing, its extension mu sends each principal cut
    <x] to <phi(x)]; when phi is an order isomorphic embedding (OIE),
    inclusion holds between two images exactly when it holds between the
    cuts, checked on every pair."""
    fails = []
    poset = source.parent
    target = phi.target
    if is_increasing(phi):
        for i, image in enumerate(phi.assignment):
            if mu[source.embedding[i]] != target.down_masks[image]:
                fails.append(
                    f"{name}: extension moves the principal cut <{poset.labels[i]}] "
                    f"off <{target.labels[image]}]"
                )
                break
    if is_oie(phi):
        masks = source.cut_masks
        for i, j in product(range(len(masks)), repeat=2):
            if (masks[i] & ~masks[j] == 0) != (mu[i] & ~mu[j] == 0):
                fails.append(
                    f"{name}: extension is not an OIE on the cuts "
                    f"{cut_label(poset, masks[i])}, {cut_label(poset, masks[j])}"
                )
                break
    return fails


# ------------------------------------------------------------- suites


class Suite(NamedTuple):
    """One `check` suite; ``check(name, item)`` gives one item's failures."""

    takes: str | None  # what --input holds: "poset", "equation" or None
    batch: int | None  # the default --count; None when the corpus has no size
    summary: Callable[[list], str]  # from an (arity, cut count) per poset checked, or None
    corpus: Callable[[int | None], Iterable[tuple[str, Any]]]
    check: Callable[[str, Any], list[str]]


def _cutcalc_summary(sizes: list[tuple[int, int]]) -> str:
    # a poset is sampled when its element masks are, whatever its cut count
    sampled = sum(1 << n > EXHAUSTIVE_MASKS for n, _ in sizes)
    masks = sum(min(1 << n, EXHAUSTIVE_MASKS) for n, _ in sizes)
    note = f" ({sampled} sampled rather than scanned exhaustively; {masks} masks checked)"
    return f"cutcalc on {len(sizes)} posets" + (note if sampled else "")


def _macneille_summary(sizes: list[tuple[int, int]]) -> str:
    # k >= n, so a poset's element families are sampled only when its cut families are
    sampled = sum(1 << k > EXHAUSTIVE_MASKS for _, k in sizes)
    families = sum(_family_count(k, BOUND_SCAN_SAMPLE) for _, k in sizes)
    note = (f" ({sampled} sampled rather than scanned exhaustively;"
            f" {families} cut families checked)")
    return f"macneille on {len(sizes)} posets" + (note if sampled else "")


# the lambdas look the checks up at call time, so a wrapper installed on
# this module (as the benchmark's layer tracer does) sees every call
SUITES = {
    "cutcalc": Suite("poset", 50, _cutcalc_summary, _iter_corpus_posets,
                     lambda name, completion: check_bound_calculus(name, completion)),
    "macneille": Suite("poset", 50, _macneille_summary, _iter_corpus_posets,
                       lambda name, completion: check_completion(name, completion)),
    "closedforms": Suite(None, None, lambda sizes: "closed-form completion sizes",
                         lambda count: [("closedforms", None)],
                         lambda name, item: check_closed_forms()),
    "theorem41": Suite("equation", 25,
                       lambda sizes: f"solvability criterion on {len(sizes)} instances",
                       _iter_equation_corpus,
                       lambda name, instance: check_equation(name, instance)),
    "theorem42": Suite("equation", 25,
                       lambda sizes: f"global characterization on {len(sizes)} instances",
                       _iter_equation_corpus,
                       lambda name, instance: check_global(name, instance)),
    "boundchain": Suite(None, 100, lambda sizes: f"bound chain on {len(sizes)} increasing maps",
                        lambda count: ((f"seed {seed}", seed) for seed in range(count)),
                        lambda name, seed: check_bound_chain_instance(seed)),
}


def run_suite(suite: Suite, item: Any, count: int | None) -> tuple[bool, list[str]]:
    """Run a suite on one --input item, or on its corpus when ``item`` is
    None, one item at a time; returns (ok, printable output lines), which
    hold at most the first 10 failures."""
    if item is None:
        items = suite.corpus(suite.batch if count is None else count)
    else:
        items = [("input", item)]
    ok, sizes, failures = True, [], []
    for name, x in items:
        fails = suite.check(name, x)
        ok = ok and not fails
        failures += fails[:10 - len(failures)]
        sizes.append((x.parent.arity, x.cut_count) if suite.takes == "poset" else None)
    head = ("PASS " if ok else "FAIL ") + suite.summary(sizes)
    return ok, [head] + ["  counterexample: " + f for f in failures]
