import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordercomplete import checks
from ordercomplete.checks import _extension_law_failures
from ordercomplete.completion import CompletedPoset, Cut, macneille_completion
from ordercomplete.errors import (
    EmptyFamily,
    InvalidCut,
    NotIncreasing,
    ParentMismatch,
    SourceNotOrdered,
    UnknownElement,
)
from ordercomplete.mapext import (
    BoundChainReport,
    PosetMap,
    check_bound_chain,
    extension_cut_map,
    extension_mask,
    is_increasing,
    is_oie,
)
from ordercomplete.generators import GeneratorSpec, generate
from ordercomplete.oracle import brute_closure, brute_upper
from ordercomplete.poset import CarrierSet, Poset, _mask_members, build_poset

from conftest import leq, posets, principal


def chain3():
    return build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])


def antichain2():
    return build_poset(["p", "q"], [])


def identity_map(poset):
    return PosetMap.from_names(poset, poset, {x: x for x in poset.labels})


class TestPosetMap:
    def test_totality_enforced(self):
        with pytest.raises(UnknownElement):
            PosetMap.from_names(chain3(), antichain2(), {"a": "p"})

    def test_unknown_source_key(self):
        with pytest.raises(UnknownElement):
            PosetMap.from_names(
                antichain2(), chain3(), {"p": "a", "q": "b", "zz": "c"}
            )

    def test_unknown_target_value(self):
        with pytest.raises(UnknownElement):
            PosetMap.from_names(antichain2(), chain3(), {"p": "a", "q": "zz"})

    def test_from_names_assignment(self):
        target = chain3()
        phi = PosetMap.from_names(antichain2(), target, {"p": "a", "q": "c"})
        assert phi.assignment[1] == target.index("c")

    def test_carrier_set_source_allowed(self):
        carrier = CarrierSet(("u", "v"))
        target = chain3()
        phi = PosetMap.from_names(carrier, target, {"u": "a", "v": "a"})
        assert phi.assignment[1] == target.index("a")


class TestApplyExtension:
    def test_singleton_lands_on_principal(self):
        p, target = antichain2(), chain3()
        phi = PosetMap.from_names(p, target, {"p": "a", "q": "c"})
        for i, x in enumerate(p.labels):
            got = extension_mask(phi, p.subset([x]).mask)
            assert got == principal(target, target.labels[phi.assignment[i]]).mask

    def test_empty_subset_gives_least_cut(self):
        p, target = antichain2(), chain3()
        phi = PosetMap.from_names(p, target, {"p": "a", "q": "c"})
        assert extension_mask(phi, 0) == macneille_completion(target).cut_masks[0]

    def test_identity_on_chain_closes_subsets(self):
        p = chain3()
        phi = identity_map(p)
        assert Cut(p, extension_mask(phi, p.subset(["b"]).mask)).names() == ("a", "b")

    def test_carrier_set_source(self):
        carrier = CarrierSet(("u", "v"))
        target = antichain2()
        phi = PosetMap.from_names(carrier, target, {"u": "p", "v": "q"})
        assert extension_mask(phi, 0b11) == target.full_mask

    @pytest.mark.parametrize("mask", [-1, 1 << 3, 1 << 20])
    def test_mask_outside_the_source_rejected(self, mask):
        phi = identity_map(chain3())
        with pytest.raises(UnknownElement, match="outside the map's source"):
            extension_mask(phi, mask)

    @given(posets(max_n=4), st.integers(0, 2**4 - 1), st.integers(0, 2**4 - 1))
    def test_monotone_for_inclusion(self, poset, a, b):
        phi = identity_map(poset)
        small = a & b & poset.full_mask
        big = b & poset.full_mask
        assert extension_mask(phi, small) & ~extension_mask(phi, big) == 0


def _seeded_map(n: int, ordered: bool, seed: int) -> PosetMap:
    """A seeded map from n source elements into a random poset of 12 to 20."""
    rng = random.Random(seed)
    source = generate(GeneratorSpec("random", n=n, density=0.2, seed=seed))
    target = generate(GeneratorSpec("random", n=rng.randint(12, 20), density=0.25, seed=seed + 1))
    if not ordered:
        source = CarrierSet(source.labels)
    return PosetMap(source, target, tuple(rng.randrange(target.arity) for _ in range(n)))


class TestImageTableCertificate:
    """``extension_mask`` against the oracle on sources past one chunk of 8.

    A mask inside one chunk reads one entry of that chunk's table and the
    all-ones entry 0 of every other, so the masks b << 8c certify every
    entry of every table; the full mask and masks that span chunks test
    the lookup loop that ANDs them."""

    @pytest.mark.parametrize("ordered", [True, False], ids=["poset", "carrier"])
    @pytest.mark.parametrize("n", [9, 16, 17, 20])
    def test_every_table_entry_and_spanning_masks(self, n, ordered):
        phi = _seeded_map(n, ordered, seed=n)
        target = phi.target

        def image(mask):
            out = 0
            for i in _mask_members(mask):
                out |= 1 << phi.assignment[i]
            return out

        assert [len(table) for table in phi._image_up_tables] == [
            1 << min(8, n - c) for c in range(0, n, 8)
        ]
        for c, table in enumerate(phi._image_up_tables):
            for b, entry in enumerate(table):
                assert entry == brute_upper(target, image(b << 8 * c))
        rng = random.Random(n)
        chunk_masks = [b << c for c in range(0, n, 8) for b in range(1 << min(8, n - c))]
        spanning = [rng.randint(0, phi.source.full_mask) for _ in range(200)]
        for mask in chunk_masks + [phi.source.full_mask] + spanning:
            assert extension_mask(phi, mask) == brute_closure(target, image(mask))


class TestClassification:
    def test_identity_is_increasing_and_oie(self):
        phi = identity_map(chain3())
        assert is_increasing(phi)
        assert is_oie(phi)

    def test_constant_is_increasing_not_oie(self):
        p = chain3()
        phi = PosetMap.from_names(p, p, {"a": "a", "b": "a", "c": "a"})
        assert is_increasing(phi)
        assert not is_oie(phi)

    def test_chain_into_antichain_not_increasing(self):
        two = build_poset(["a", "b"], [("a", "b")])
        phi = PosetMap.from_names(two, antichain2(), {"a": "p", "b": "q"})
        assert not is_increasing(phi)

    def test_antichain_into_chain_increasing_but_not_oie(self):
        p = antichain2()
        two = build_poset(["a", "b"], [("a", "b")])
        phi = PosetMap.from_names(p, two, {"p": "a", "q": "b"})
        assert is_increasing(phi)
        assert not is_oie(phi)

    def test_carrier_set_source_rejected(self):
        carrier = CarrierSet(("u",))
        phi = PosetMap.from_names(carrier, chain3(), {"u": "a"})
        with pytest.raises(SourceNotOrdered):
            is_increasing(phi)
        with pytest.raises(SourceNotOrdered):
            is_oie(phi)


@st.composite
def maps(draw):
    """Random maps into random posets: arbitrary (mostly not injective),
    constant or injective, from a random poset or from a bare carrier."""
    target = draw(posets())
    kind = draw(st.sampled_from(["arbitrary", "constant", "injective", "bare"]))
    # an injective map needs a source no larger than its target
    source = draw(posets(max_n=target.arity if kind == "injective" else 6))
    images = st.integers(0, target.arity - 1)
    if kind == "constant":
        assignment = [draw(images)] * source.arity
    elif kind == "injective":
        assignment = draw(st.permutations(range(target.arity)))[: source.arity]
    else:
        assignment = draw(st.lists(images, min_size=source.arity, max_size=source.arity))
    if kind == "bare":
        source = CarrierSet(source.labels)
    return PosetMap(source, target, tuple(assignment))


def all_pairs_verdicts(phi):
    """(increasing, OIE) of a map between posets, by a loop over label pairs."""
    source, target = phi.source, phi.target
    image = {x: target.labels[i] for x, i in zip(source.labels, phi.assignment)}
    pairs = [(a, b) for a in source.labels for b in source.labels]
    increasing = all(
        leq(target, image[a], image[b]) for a, b in pairs if leq(source, a, b)
    )
    injective = len(set(image.values())) == len(image)
    oie = injective and all(
        leq(source, a, b) == leq(target, image[a], image[b]) for a, b in pairs
    )
    return increasing, oie


class TestPulledBackOrder:
    @given(maps())
    def test_verdicts_match_an_all_pairs_loop(self, phi):
        if not isinstance(phi.source, Poset):
            with pytest.raises(SourceNotOrdered):
                is_increasing(phi)
            with pytest.raises(SourceNotOrdered):
                is_oie(phi)
            return
        assert (is_increasing(phi), is_oie(phi)) == all_pairs_verdicts(phi)


def law_failures(phi):
    """Failure lines of the conditional extension laws, after the bound
    chain has checked that the extension is monotone."""
    source = macneille_completion(phi.source)
    mu = extension_cut_map(phi, source)
    check_bound_chain(source, phi.target, mu, [source.cuts[0]])
    return _extension_law_failures("map", source, phi, mu)


class TestExtensionLaws:
    def test_identity_passes_everything(self):
        phi = identity_map(chain3())
        assert is_increasing(phi) and is_oie(phi)
        assert law_failures(phi) == []

    def test_non_increasing_skips_conditional_parts(self):
        two = build_poset(["a", "b"], [("a", "b")])
        phi = PosetMap.from_names(two, antichain2(), {"a": "p", "b": "q"})
        # <b] = {a,b} goes to {p,q}, not <q]; the law is not checked
        source = macneille_completion(two)
        mu = extension_cut_map(phi, source)
        assert mu[source.embedding[1]] != phi.target.down_masks[1]
        assert law_failures(phi) == []

    def test_increasing_non_oie_checks_principals_only(self):
        p = antichain2()
        two = build_poset(["a", "b"], [("a", "b")])
        phi = PosetMap.from_names(p, two, {"p": "a", "q": "b"})
        # {} and {p} both go to {a}, so the cut pairs are not scanned
        source = macneille_completion(p)
        mu = extension_cut_map(phi, source)
        assert mu[0] == mu[source.embedding[0]]
        assert law_failures(phi) == []
        broken = list(mu)
        broken[source.embedding[0]] = two.full_mask
        failures = _extension_law_failures("map", source, phi, tuple(broken))
        assert len(failures) == 1 and "principal cut <p]" in failures[0]

    def test_carrier_source_checks_monotonicity_only(self):
        carrier = CarrierSet(("u", "v"))
        phi = PosetMap.from_names(carrier, chain3(), {"u": "a", "v": "c"})
        for big in range(1 << carrier.arity):
            for small in (m for m in range(big + 1) if m & ~big == 0):
                assert extension_mask(phi, small) & ~extension_mask(phi, big) == 0

    @given(posets(max_n=4))
    def test_identity_everywhere(self, poset):
        phi = identity_map(poset)
        assert is_increasing(phi) and is_oie(phi)
        assert law_failures(phi) == []

    def test_bound_chain_check_reports_broken_laws(self, monkeypatch):
        seed = 14  # phi is increasing and an OIE
        _, phi, _, _ = checks.bound_chain_fixture(seed)
        assert is_increasing(phi) and is_oie(phi)
        assert checks.check_bound_chain_instance(seed) == []
        top = phi.target.full_mask
        least = macneille_completion(phi.target).cut_masks[0]

        # every cut to the full carrier: monotone, but principal cuts move
        monkeypatch.setattr(
            checks, "extension_cut_map", lambda phi, source: (top,) * source.cut_count
        )
        failures = checks.check_bound_chain_instance(seed)
        assert any("principal cut" in line for line in failures)

        # the least cut to the full carrier, every other cut to the least one
        monkeypatch.setattr(
            checks,
            "extension_cut_map",
            lambda phi, source: (top,) + (least,) * (source.cut_count - 1),
        )
        failures = checks.check_bound_chain_instance(seed)
        assert len(failures) == 1 and "extension not monotone" in failures[0]


class TestExtensionCutMap:
    def test_images_are_target_cut_masks(self):
        p = chain3()
        c = macneille_completion(p)
        assert extension_cut_map(identity_map(p), c) == c.cut_masks

    def test_completion_of_another_poset_rejected(self):
        with pytest.raises(ParentMismatch):
            extension_cut_map(identity_map(chain3()), macneille_completion(antichain2()))


class TestLemmaChain:
    def test_identity_map_collapses_to_equalities(self):
        p = chain3()
        c = macneille_completion(p)
        mu = c.cut_masks
        family = [c.cuts[0], c.cuts[2]]
        report = check_bound_chain(c, p, mu, family)
        assert report.chain_holds
        assert report.mu_of_inf == report.inf_of_images
        assert report.mu_of_sup == report.sup_of_images

    def test_extension_of_oie_on_incomparable_principals(self):
        source_poset = antichain2()
        target_poset = build_poset(
            ["p", "q", "r", "s"], [("p", "r"), ("q", "r"), ("p", "s"), ("q", "s")]
        )
        phi = PosetMap.from_names(source_poset, target_poset, {"p": "p", "q": "q"})
        assert is_oie(phi)
        source = macneille_completion(source_poset)
        mu = extension_cut_map(phi, source)
        family = [principal(source_poset, "p"), principal(source_poset, "q")]
        report = check_bound_chain(source, target_poset, mu, family)
        assert report.chain_holds

    def test_collapsing_map_makes_first_inequality_strict(self):
        source_poset = antichain2()
        target_poset = antichain2()
        phi = PosetMap.from_names(source_poset, target_poset, {"p": "p", "q": "p"})
        source = macneille_completion(source_poset)
        mu = extension_cut_map(phi, source)
        family = [principal(source_poset, "p"), principal(source_poset, "q")]
        report = check_bound_chain(source, target_poset, mu, family)
        assert report.chain_holds
        # inf of the family is the empty cut, whose image stays empty,
        # while both images share p below them
        assert report.mu_of_inf.names() == ()
        assert report.inf_of_images.names() == ("p",)

    def test_constant_map_collapses_inner_inequality(self):
        p = chain3()
        c = macneille_completion(p)
        mu = tuple(c.cut_masks[1] for _ in range(c.cut_count))
        family = list(c.cuts)
        report = check_bound_chain(c, p, mu, family)
        assert report.chain_holds
        assert report.inf_of_images == report.sup_of_images

    @pytest.mark.parametrize(
        "chain, holds",
        [
            ((0, 0, 1, 2), True),
            ((1, 0, 1, 2), False),  # mu(inf E) escapes inf mu(E)
            ((0, 1, 0, 2), False),  # inf mu(E) escapes sup mu(E)
            ((0, 0, 2, 1), False),  # sup mu(E) escapes mu(sup E)
        ],
    )
    def test_chain_holds_only_when_every_link_does(self, chain, holds):
        # the cuts of a 3-chain are nested: {a}, {a,b}, {a,b,c}
        c = macneille_completion(chain3())
        report = BoundChainReport(*(c.cuts[i] for i in chain))
        assert report.chain_holds is holds

    def test_decreasing_map_rejected(self):
        p = chain3()
        c = macneille_completion(p)
        mu = tuple(reversed(c.cut_masks))
        with pytest.raises(NotIncreasing):
            check_bound_chain(c, p, mu, [c.cuts[0]])

    def test_decrease_is_named_at_the_first_cover_in_edge_order(self):
        # the N (a < c > b < d) has the cuts {}, {a}, {b}, {b,d}, {a,b,c},
        # {a,b,c,d}; sending {b} to the full carrier breaks its covers
        # {b} <= {a,b,c} and {b} <= {b,d}, and the cover edges list the
        # first of them first
        p = build_poset(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")])
        c = macneille_completion(p)
        mu = c.cut_masks[:2] + (p.full_mask,) + c.cut_masks[3:]
        with pytest.raises(NotIncreasing) as raised:
            check_bound_chain(c, p, mu, [c.cuts[0]])
        assert str(raised.value) == "map decreases on {b} <= {a,b,c}"

    def test_empty_family_rejected(self):
        p = chain3()
        c = macneille_completion(p)
        with pytest.raises(EmptyFamily):
            check_bound_chain(c, p, c.cut_masks, [])

    def test_wrong_length_rejected(self):
        p = chain3()
        c = macneille_completion(p)
        with pytest.raises(UnknownElement):
            check_bound_chain(c, p, c.cut_masks[:-1], [c.cuts[0]])

    def test_non_cut_image_rejected(self):
        p = chain3()
        c = macneille_completion(p)
        mu = (p.subset(["b"]).mask,) + c.cut_masks[1:]
        with pytest.raises(InvalidCut):
            check_bound_chain(c, p, mu, [c.cuts[0]])

    def test_incomplete_source_completion_rejected(self):
        p = antichain2()
        full = macneille_completion(p)
        # {}, {p}, {q} without the top {p,q}: the constructor names the
        # missing cut before the chain can run
        with pytest.raises(InvalidCut, match="misses the cut {p,q}"):
            CompletedPoset(p, full.cut_masks[:-1])

    def test_increasing_verdict_matches_pair_scan(self):
        rng = random.Random(7)
        diamond = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        verdicts = set()
        for _ in range(60):
            pairs = [pair for pair in diamond if rng.random() < 0.6]
            source_poset = build_poset(["a", "b", "c", "d"], pairs)
            target_pairs = [("p", "q")] if rng.random() < 0.5 else []
            target_poset = build_poset(["p", "q", "r"], target_pairs)
            source = macneille_completion(source_poset)
            tmasks = macneille_completion(target_poset).cut_masks
            smasks = source.cut_masks
            mu = [rng.choice(tmasks) for _ in smasks]
            if rng.random() < 0.5:
                # images sorted by size along the canonical order
                mu.sort(key=lambda m: m.bit_count())
            increasing = all(
                mu[i] & ~mu[j] == 0
                for i in range(len(smasks))
                for j in range(len(smasks))
                if smasks[i] & ~smasks[j] == 0
            )
            verdicts.add(increasing)
            try:
                check_bound_chain(source, target_poset, tuple(mu), [source.cuts[0]])
                got = True
            except NotIncreasing:
                got = False
            assert got == increasing
        assert verdicts == {True, False}
