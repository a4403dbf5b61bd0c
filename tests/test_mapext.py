import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordercomplete.completion import (
    CompletedPoset,
    cut_closure,
    embed,
    macneille_completion,
)
from ordercomplete.errors import (
    EmptyFamily,
    InvalidCut,
    NotIncreasing,
    ParentMismatch,
    SourceNotOrdered,
    UnknownElement,
)
from ordercomplete.mapext import (
    PosetMap,
    apply_extension,
    check_bound_chain,
    check_extension_laws,
    extension_cut_map,
    is_increasing,
    is_oie,
)
from ordercomplete.poset import CarrierSet, Subset, build_poset

from conftest import posets


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

    def test_apply(self):
        phi = PosetMap.from_names(antichain2(), chain3(), {"p": "a", "q": "c"})
        assert phi.apply("q") == "c"

    def test_carrier_set_source_allowed(self):
        carrier = CarrierSet(("u", "v"))
        phi = PosetMap.from_names(carrier, chain3(), {"u": "a", "v": "a"})
        assert phi.apply("v") == "a"


class TestApplyExtension:
    def test_singleton_lands_on_principal(self):
        p, target = antichain2(), chain3()
        phi = PosetMap.from_names(p, target, {"p": "a", "q": "c"})
        for x in p.labels:
            got = apply_extension(phi, p.subset([x]))
            assert got == embed(target, phi.apply(x))

    def test_empty_subset_gives_least_cut(self):
        p, target = antichain2(), chain3()
        phi = PosetMap.from_names(p, target, {"p": "a", "q": "c"})
        assert apply_extension(phi, p.subset([])) == cut_closure(
            target, target.subset([])
        )

    def test_identity_on_chain_closes_subsets(self):
        p = chain3()
        phi = identity_map(p)
        assert apply_extension(phi, p.subset(["b"])).names() == ("a", "b")

    def test_carrier_set_source(self):
        carrier = CarrierSet(("u", "v"))
        target = antichain2()
        phi = PosetMap.from_names(carrier, target, {"u": "p", "v": "q"})
        got = apply_extension(phi, Subset(carrier, 0b11))
        assert got.mask == target.full_mask

    def test_parent_mismatch(self):
        p = chain3()
        phi = identity_map(p)
        with pytest.raises(ParentMismatch):
            apply_extension(phi, antichain2().subset(["p"]))

    @given(posets(max_n=4), st.integers(0, 2**4 - 1), st.integers(0, 2**4 - 1))
    def test_monotone_for_inclusion(self, poset, a, b):
        phi = identity_map(poset)
        small = Subset(poset, a & b & poset.full_mask)
        big = Subset(poset, b & poset.full_mask)
        assert apply_extension(phi, small).mask & ~apply_extension(phi, big).mask == 0


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


class TestExtensionLaws:
    def test_identity_passes_everything(self):
        report = check_extension_laws(identity_map(chain3()))
        assert report.extension_monotone
        assert report.principal_commutes is True
        assert report.oie_on_cuts is True
        assert report.all_ok
        assert report.exhaustive

    def test_non_increasing_skips_conditional_parts(self):
        two = build_poset(["a", "b"], [("a", "b")])
        phi = PosetMap.from_names(two, antichain2(), {"a": "p", "b": "q"})
        report = check_extension_laws(phi)
        assert report.extension_monotone
        assert report.principal_commutes is None
        assert report.oie_on_cuts is None
        assert report.all_ok

    def test_increasing_non_oie_checks_principals_only(self):
        p = antichain2()
        two = build_poset(["a", "b"], [("a", "b")])
        phi = PosetMap.from_names(p, two, {"p": "a", "q": "b"})
        report = check_extension_laws(phi)
        assert report.extension_monotone
        assert report.principal_commutes is True
        assert report.oie_on_cuts is None

    def test_carrier_source_checks_monotonicity_only(self):
        carrier = CarrierSet(("u", "v"))
        phi = PosetMap.from_names(carrier, chain3(), {"u": "a", "v": "c"})
        report = check_extension_laws(phi)
        assert report.extension_monotone
        assert report.principal_commutes is None

    @given(posets(max_n=4))
    def test_identity_everywhere(self, poset):
        report = check_extension_laws(identity_map(poset))
        assert report.all_ok
        assert report.principal_commutes is True and report.oie_on_cuts is True


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
        family = [embed(source_poset, "p"), embed(source_poset, "q")]
        report = check_bound_chain(source, target_poset, mu, family)
        assert report.chain_holds

    def test_collapsing_map_makes_first_inequality_strict(self):
        source_poset = antichain2()
        target_poset = antichain2()
        phi = PosetMap.from_names(source_poset, target_poset, {"p": "p", "q": "p"})
        source = macneille_completion(source_poset)
        mu = extension_cut_map(phi, source)
        family = [embed(source_poset, "p"), embed(source_poset, "q")]
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

    def test_decreasing_map_rejected(self):
        p = chain3()
        c = macneille_completion(p)
        mu = tuple(reversed(c.cut_masks))
        with pytest.raises(NotIncreasing):
            check_bound_chain(c, p, mu, [c.cuts[0]])

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
        # {}, {p}, {q} without the top {p,q}; the embedding still holds
        masks = full.cut_masks[:-1]
        partial = CompletedPoset(p, masks, full.embedding)
        with pytest.raises(InvalidCut):
            check_bound_chain(partial, p, masks, [partial.cuts[0]])

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
