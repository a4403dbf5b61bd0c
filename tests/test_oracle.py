import gc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordercomplete.completion import (
    CompletedPoset,
    _trusted,
    inf_cuts,
    macneille_completion,
    sup_cuts,
)
from ordercomplete.errors import NoBound
from ordercomplete.generators import GeneratorSpec, generate, random_equation
from ordercomplete.jsonio import poset_from_data
from ordercomplete.oracle import (
    _brute_image_table,
    _members,
    brute_bound,
    brute_closure,
    brute_cuts,
    brute_solve,
)
from ordercomplete.poset import _upper_mask, build_poset
from ordercomplete.solver import EquationInstance

from conftest import posets
from test_golden import _standard


def chain3():
    return build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])


def subset_scan(poset):
    """Cut masks by the closure of every one of the 2^n subsets, in the
    oracle's order: the test-side arbiter for NextClosure."""
    masks = [m for m in range(1 << poset.arity) if brute_closure(poset, m) == m]
    return sorted(masks, key=lambda m: (len(_members(m)), _members(m)))


def _large_random(seed):
    n, density = 13 + seed % 8, (0.15, 0.3, 0.5, 0.7)[seed % 4]
    spec = GeneratorSpec("random", n=n, density=density, seed=seed)
    return pytest.param(generate(spec), id=f"random(n={n},density={density},seed={seed})")


@st.composite
def shuffled_posets(draw, max_n):
    """``posets`` with the elements renumbered, so that index order need not
    extend the order."""
    poset = draw(posets(max_n))
    labels = draw(st.permutations(poset.labels))
    pairs = [
        (poset.labels[i], poset.labels[j])
        for i in range(poset.arity)
        for j in _members(poset.up_masks[i])
    ]
    return build_poset(labels, pairs, "full")


class TestBruteCuts:
    def test_chain_counts(self):
        assert len(brute_cuts(chain3())) == 3

    def test_antichain_counts(self):
        poset = build_poset(["a", "b"], [])
        cuts = brute_cuts(poset)
        assert [c.names() for c in cuts] == [(), ("a",), ("b",), ("a", "b")]

    def test_single_element(self):
        poset = build_poset(["a"], [])
        assert len(brute_cuts(poset)) == 1

    def test_reaches_the_arity_cap(self):
        assert len(brute_cuts(generate(GeneratorSpec("boolean", k=4)))) == 16
        assert len(brute_cuts(generate(GeneratorSpec("chain", n=20)))) == 20

    @given(shuffled_posets(max_n=12))
    def test_matches_the_scan_of_every_subset(self, poset):
        assert [s.mask for s in brute_cuts(poset)] == subset_scan(poset)

    @pytest.mark.parametrize(
        "poset",
        [
            pytest.param(poset_from_data(_standard(10)), id="S_10"),
            pytest.param(generate(GeneratorSpec("chain", n=20)), id="chain(20)"),
            pytest.param(generate(GeneratorSpec("antichain", n=20)), id="antichain(20)"),
        ]
        + [_large_random(seed) for seed in range(40)],
    )
    def test_matches_the_enumeration_above_the_scan(self, poset):
        """13 to 20 elements, where the scan of every subset is too slow."""
        reference = [s.mask for s in brute_cuts(poset)]
        assert reference == list(macneille_completion(poset).cut_masks)

    def test_shares_no_kernel_with_the_fast_path(self):
        """Wrong bound tables, as a fault in the fast kernel would leave
        them, do not move the oracle's cuts, bounds or solutions."""

        def break_kernel(poset):
            for table in ("_up_tables", "_down_tables"):
                vars(poset)[table] = tuple((0,) * len(chunk) for chunk in getattr(poset, table))
            assert _upper_mask(poset, 0) != poset.full_mask

        poset = generate(GeneratorSpec("random", n=18, density=0.3, seed=7))
        completion = macneille_completion(poset)
        masks = completion.cut_masks
        families = [[], [masks[3], masks[7]], masks[5:40], masks]

        def answers():
            bounds = [brute_bound(completion, f, w) for f in families for w in ("sup", "inf")]
            return [s.mask for s in brute_cuts(poset)], bounds

        reference = answers()
        break_kernel(poset)
        assert answers() == reference

        def solutions(instance):
            found = (brute_solve(instance, t) for t in instance.codomain_completion.cuts)
            return [None if s is None else s.mask for s in found]

        instance = random_equation(35)  # 4 classes, 5 of 8 targets solvable
        reference = solutions(instance)
        # the same map under another cap is another instance, so it builds
        # its own image table on the broken kernel
        broken = EquationInstance(instance.t, instance.max_cuts - 1)
        broken.codomain_completion  # the targets, listed before the fault
        break_kernel(broken.quotient)
        break_kernel(broken.codomain)
        assert solutions(broken) == reference


def quadratic_bound(cuts, members, which):
    """The bound by the double scan: the cuts above (below) every member,
    then the first of them below (above) all the others; None for none."""
    if which == "sup":
        above = [m for m in cuts if all(mem & ~m == 0 for mem in members)]
        bounds = (c for c in above if all(c & ~other == 0 for other in above))
    else:
        below = [m for m in cuts if all(m & ~mem == 0 for mem in members)]
        bounds = (c for c in below if all(other & ~c == 0 for other in below))
    return next(bounds, None)


def bound_or_none(bits, cuts, members, which):
    """``brute_bound`` over an arbitrary mask list on an antichain of ``bits``."""
    carrier = build_poset([f"e{i}" for i in range(bits)], [])
    completion = _trusted(CompletedPoset, parent=carrier, cut_masks=tuple(cuts))
    try:
        return brute_bound(completion, iter(members), which)
    except NoBound:
        return None


@st.composite
def mask_lists(draw):
    """0 to 12 masks over at most 8 bits, repeats allowed, and 0 to 4 members
    that are masks of the list or any masks."""
    bits = draw(st.integers(0, 8))
    mask = st.integers(0, (1 << bits) - 1)
    cuts = draw(st.lists(mask, max_size=12))
    member = st.one_of(mask, st.sampled_from(cuts)) if cuts else mask
    return bits, cuts, draw(st.lists(member, max_size=4))


class TestBruteBound:
    def test_singleton_family_returns_member(self):
        completion = macneille_completion(chain3())
        for mask in completion.cut_masks:
            assert brute_bound(completion, [mask], "sup") == mask
            assert brute_bound(completion, [mask], "inf") == mask

    def test_agrees_with_fast_bounds_on_seeded_posets(self):
        import random

        for seed in range(20):
            rng = random.Random(seed)
            poset = generate(
                GeneratorSpec("random", n=rng.randint(2, 6), density=0.4, seed=seed)
            )
            completion = macneille_completion(poset)
            k = completion.cut_count
            for _ in range(20):
                family = [
                    completion.cuts[i]
                    for i in range(k)
                    if rng.random() < 0.5
                ]
                masks = [cut.mask for cut in family]
                assert sup_cuts(completion, family).mask == brute_bound(
                    completion, masks, "sup"
                )
                assert inf_cuts(completion, family).mask == brute_bound(
                    completion, masks, "inf"
                )

    @given(mask_lists(), st.sampled_from(["sup", "inf"]))
    def test_agrees_with_the_double_scan(self, drawn, which):
        """The one-pass scan finds the bound of the double scan on any mask
        list, lattice or not; both find none on the same families."""
        bits, cuts, members = drawn
        assert bound_or_none(bits, cuts, members, which) == quadratic_bound(cuts, members, which)

    def test_agrees_with_the_double_scan_on_seeded_lists(self):
        """Half of the lists are drawn from a closure system (masks closed under
        intersection, the full mask added), so many of their families have bounds."""
        import random

        rng = random.Random(0)
        outcomes = set()
        for _ in range(3000):
            bits = rng.randint(0, 8)
            full = (1 << bits) - 1
            cuts = [rng.randint(0, full) for _ in range(rng.randint(0, 12))]
            if rng.random() < 0.5:
                closed = {full}
                for m in cuts:
                    closed |= {m & c for c in closed} | {m}
                cuts = rng.sample(sorted(closed), min(len(closed), 12))
            pool = cuts + [rng.randint(0, full)]
            members = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
            for which in ("sup", "inf"):
                expected = quadratic_bound(cuts, members, which)
                assert bound_or_none(bits, cuts, members, which) == expected
                outcomes.add((which, expected is None, members == []))
        assert len(outcomes) == 8  # each direction: found or not, empty family or not

    def test_bad_direction_rejected(self):
        completion = macneille_completion(chain3())
        with pytest.raises(ValueError):
            brute_bound(completion, [], "median")

    def test_missing_bound_reported(self):
        # a hand-built, deliberately non-exhaustive cut list: without the
        # empty cut and the full carrier the two principals have no sup.
        # The public constructor rejects it, so it skips validation.
        poset = build_poset(["a", "b"], [])
        full = macneille_completion(poset)
        partial = _trusted(
            CompletedPoset,
            parent=poset,
            cut_masks=(full.cut_masks[1], full.cut_masks[2]),
        )
        with pytest.raises(NoBound):
            brute_bound(partial, partial.cut_masks, "sup")


class TestBruteSolve:
    def test_identity_echoes_target(self):
        poset = chain3()
        instance = _identity_instance(poset)
        for target in instance.codomain_completion.cuts:
            found = brute_solve(instance, target)
            assert found is not None and found.names() == target.names()

    def test_constant_instance(self):
        from ordercomplete.mapext import PosetMap
        from ordercomplete.poset import CarrierSet
        from ordercomplete.solver import build_equation

        codomain = build_poset(["p", "q"], [("p", "q")])
        domain = CarrierSet(("u", "v"))
        t = PosetMap.from_names(domain, codomain, {"u": "p", "v": "p"})
        instance = build_equation(domain, codomain, t)
        hit = brute_solve(instance, codomain.subset(["p"]))
        assert hit is not None and hit.names() == ("u",)
        assert brute_solve(instance, codomain.subset(["p", "q"])) is None

    def test_image_table_dies_with_its_instance(self):
        instance = random_equation(3)
        for target in instance.codomain_completion.cuts:
            brute_solve(instance, target)
        # one table serves every target of the instance
        assert _brute_image_table(instance) is _brute_image_table(instance)
        ref = weakref.ref(instance)
        del instance, target
        gc.collect()
        assert ref() is None

    def test_never_finds_two_solutions(self):
        for seed in range(25):
            instance = random_equation(seed)
            for target in instance.codomain_completion.cuts:
                brute_solve(instance, target)  # MultipleSolutions would raise


def _identity_instance(poset):
    from ordercomplete.mapext import PosetMap
    from ordercomplete.poset import CarrierSet
    from ordercomplete.solver import build_equation

    domain = CarrierSet(poset.labels)
    t = PosetMap.from_names(domain, poset, {x: x for x in poset.labels})
    return build_equation(domain, poset, t)
