"""Verification suites: operator identities, completion structure,
closed-form sizes, the solvability criterion against exhaustive search,
the global surjectivity characterization, and the bound chain with the
laws of the extension of a map: monotone always, commuting with the
element embeddings when the map is increasing, and an order isomorphic
embedding on the cuts when the map is one.

Each check returns a list of failure strings (empty means pass) so that
both the `check` command and the test suite can share them.  Subset- and
family-indexed checks run exhaustively up to the documented thresholds
and fall back to seeded deterministic samples beyond, so a fixed corpus
always produces the same verdict.  The samples have fixed sizes: the
family sup and inf, checked once against the oracle's bound scan in
``check_completion``, see at most 2 + 2 * BOUND_SCAN_SAMPLE families, and
the least-cut test at most BOUND_SCAN_SAMPLE cuts per mask, so a poset's
check work grows about linearly in its cut count.

Note on the full-carrier equivalence: on a carrier with a minimum, the
set of upper bounds of {minimum} is everything, so the textbook
"A^u = X iff A empty" only survives in the corrected form
"A^u = X iff A is contained in the lower bounds of X" (dually for A^l).
The corrected form degenerates to the textbook one exactly when there is
no minimum (no maximum), which the reports surface separately.
"""

from __future__ import annotations

import random
from functools import cache, partial
from itertools import product
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .completion import (
    CompletedPoset,
    _lower_mask,
    _upper_mask,
    cut_label,
    macneille_completion,
    verify_macneille,
)
from .errors import InvalidCut, NotIncreasing
from .generators import GeneratorSpec, _random_pairs, generate, random_equation
from .mapext import PosetMap, check_bound_chain, extension_cut_map, is_increasing, is_oie
from .oracle import _brute_image_table, brute_bound, brute_cuts, brute_lower, brute_solve
from .oracle import brute_upper
from .poset import Poset, _join, _mask_members, _meet, _submasks, build_poset
from .poset import maximum_index, minimum_index
from .solver import EquationInstance, _criterion, global_character

EXHAUSTIVE_MASKS = 4096  # all subsets when 2^count fits
EXHAUSTIVE_PAIRS = 19683  # all subset pairs when 3^arity fits
FAMILY_SAMPLE = 256
BOUND_SCAN_SAMPLE = 64  # oracle bound scan families; cuts per least-cut test


def _iter_index_families(count: int, seed: int, sample_budget: int) -> Iterable[tuple[int, ...]]:
    """All index subsets when 2^count fits EXHAUSTIVE_MASKS, a fixed sample otherwise.

    The sample holds the empty family, the full family, every singleton
    while ``count <= sample_budget`` (else a seeded ``sample_budget`` of
    them), then ``sample_budget`` seeded random families: at most
    2 + 2 * sample_budget families, whatever the count.
    """
    if 1 << count <= EXHAUSTIVE_MASKS:
        for mask in range(1 << count):
            yield _mask_members(mask)
        return
    yield ()
    yield tuple(range(count))
    rng = random.Random(seed)
    singles = range(count)
    if count > sample_budget:
        singles = sorted(rng.sample(singles, sample_budget))
    for i in singles:
        yield (i,)
    for _ in range(sample_budget):
        size = rng.randint(1, count)
        yield tuple(sorted(rng.sample(range(count), size)))


def _family_count(count: int, sample_budget: int) -> int:
    """How many families ``_iter_index_families`` yields."""
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


def check_bound_calculus(name: str, completion: CompletedPoset) -> list[str]:
    """Identities of the upper/lower-bound operators on one completed poset."""
    fails: list[str] = []
    poset = completion.parent
    n = poset.arity
    full = poset.full_mask
    masks = _sampled_masks(poset)
    upper = cache(partial(_upper_mask, poset))
    lower = cache(partial(_lower_mask, poset))

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
    for m in masks:
        if (upper(m) == full) != (m & ~min_mask == 0):
            fails.append(f"{name}: full-carrier test for upper bounds broke on {m:#x}")
            break
        if (lower(m) == full) != (m & ~max_mask == 0):
            fails.append(f"{name}: full-carrier test for lower bounds broke on {m:#x}")
            break

    # empty bounds exactly mean unbounded
    down = poset.down_masks
    up = poset.up_masks
    for m in masks:
        bounded_above = any(m & ~down[x] == 0 for x in range(n))
        if (upper(m) == 0) == bounded_above:
            fails.append(f"{name}: boundedness above mismatched on {m:#x}")
            break
        bounded_below = any(m & ~up[x] == 0 for x in range(n))
        if (lower(m) == 0) == bounded_below:
            fails.append(f"{name}: boundedness below mismatched on {m:#x}")
            break

    # antitone on inclusion
    if 3**n <= EXHAUSTIVE_PAIRS:
        pairs: Iterable[tuple[int, int]] = (
            (small, big)
            for big in range(1 << n)
            for small in _submasks(big)
        )
    else:
        rng = random.Random(1)
        pairs = (
            (big & rng.randint(0, full), big)
            for big in rng.choices(masks, k=EXHAUSTIVE_MASKS)
        )
    for small, big in pairs:
        if upper(big) & ~upper(small) or lower(big) & ~lower(small):
            fails.append(f"{name}: bounds are not antitone on {small:#x} <= {big:#x}")
            break

    # expansion and the three-step collapse
    for m in masks:
        ul = lower(upper(m))
        lu = upper(lower(m))
        if m & ~ul or m & ~lu:
            fails.append(f"{name}: subset not contained in its closures on {m:#x}")
            break
        if upper(ul) != upper(m) or lower(lu) != lower(m):
            fails.append(f"{name}: triple bound operator did not collapse on {m:#x}")
            break

    # principal identities
    for x in range(n):
        sx = 1 << x
        if upper(sx) != up[x] or lower(sx) != down[x]:
            fails.append(f"{name}: singleton bounds differ from principal sets at {x}")
        if lower(up[x]) != down[x] or upper(down[x]) != up[x]:
            fails.append(f"{name}: principal sets are not mutual bounds at {x}")

    cuts = completion.cut_masks
    cut_set = set(cuts)
    if len(cuts) > BOUND_SCAN_SAMPLE:
        cuts = random.Random(2).sample(cuts, BOUND_SCAN_SAMPLE)

    # closures are least cuts
    def least_cut_violation() -> str | None:
        for m in masks:
            ul = lower(upper(m))
            if ul not in cut_set:
                return f"{name}: closure of {m:#x} is not a cut"
            for c in cuts:
                if m & ~c == 0 and ul & ~c:
                    return f"{name}: closure of {m:#x} is not least above it"
        return None

    violation = least_cut_violation()
    if violation:
        fails.append(violation)
    if (1 << n) <= EXHAUSTIVE_MASKS:
        if {lower(upper(m)) for m in masks} != cut_set:
            fails.append(f"{name}: closures of all subsets do not give all cuts")

    # closure equals the sup of the embedded members
    for m in masks:
        if lower(upper(m)) != _join(poset, [down[x] for x in _mask_members(m)]):
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

    masks = completion.cut_masks
    for indices in _iter_index_families(len(masks), 0, BOUND_SCAN_SAMPLE):
        family = [masks[i] for i in indices]
        if _join(poset, family) != brute_bound(completion, family, "sup"):
            fails.append(f"{name}: sup disagrees with the bound scan on {indices}")
            break
        if _meet(poset, family) != brute_bound(completion, family, "inf"):
            fails.append(f"{name}: inf disagrees with the bound scan on {indices}")
            break
    return fails


def _bound_keeping_failures(name: str, poset: Poset) -> list[str]:
    """The embedding keeps every sup and inf of element subsets, tested on
    the table kernel off the principal sets that ``verify_macneille`` checks."""
    fails = []
    principal = poset.down_masks
    for indices in _iter_index_families(poset.arity, 1, FAMILY_SAMPLE):
        mask = sum(1 << i for i in indices)
        members = [principal[i] for i in indices]
        s = minimum_index(poset, _upper_mask(poset, mask))
        if s is not None and _join(poset, members) != principal[s]:
            fails.append(f"{name}: embedding loses the supremum of {cut_label(poset, mask)}")
        t = maximum_index(poset, _lower_mask(poset, mask))
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
    if sorted(completion.embedding) != list(range(completion.cut_count)):
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
    qc = instance.quotient_completion
    index, images = qc._mask_index, instance.images
    # the criterion reads the images, so a wrong one ends the check here
    for mask, image, reference in zip(qc.cut_masks, images, _brute_image_table(instance)):
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
    # a poset is sampled when its masks, mask pairs or cuts per least-cut test are
    sampled = sum(1 << n > EXHAUSTIVE_MASKS or 3**n > EXHAUSTIVE_PAIRS or k > BOUND_SCAN_SAMPLE
                  for n, k in sizes)
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
