from operator import attrgetter

import pytest

from ordercomplete.completion import _trusted, macneille_completion
from ordercomplete.errors import InvalidCut, ParentMismatch, ResourceCap, UnknownElement
from ordercomplete.generators import STENCILS, GeneratorSpec, generate, random_equation
from ordercomplete.mapext import PosetMap, is_oie
from ordercomplete.oracle import brute_closure, brute_cuts, brute_solve
from ordercomplete.poset import CarrierSet, Subset, build_poset
from ordercomplete.solver import EquationInstance, build_equation, global_character, solve

from conftest import leq


def replace(record, **changes):
    """A record of the same class with some fields or derived values
    changed and the rest kept, built without validation: the changed
    values are faults the checks must catch."""
    return _trusted(type(record), **{**vars(record), **changes})


def chain(labels):
    return build_poset(labels, list(zip(labels, labels[1:])))


def make_instance(domain_labels, codomain, mapping):
    domain = CarrierSet(tuple(domain_labels))
    t = PosetMap.from_names(domain, codomain, mapping)
    return build_equation(domain, codomain, t)


def identity_instance(poset):
    return make_instance(poset.labels, poset, {x: x for x in poset.labels})


def one_point_into_antichain():
    codomain = build_poset(["p", "q"], [])
    return make_instance(["u"], codomain, {"u": "p"})


class TestQuotient:
    def test_single_fiber_collapses(self):
        codomain = chain(["p", "q"])
        instance = make_instance(["u", "v"], codomain, {"u": "p", "v": "p"})
        assert instance.classes == ((0, 1),)
        assert instance.quotient.arity == 1
        assert instance.quotient.labels == ("u",)

    def test_injective_map_pulls_back_antichain(self):
        codomain = build_poset(["p", "q", "r"], [])
        instance = make_instance(["u", "v", "w"], codomain, {"u": "p", "v": "q", "w": "r"})
        order = instance.quotient
        assert order.labels == ("u", "v", "w")
        for a in order.labels:
            for b in order.labels:
                assert leq(order, a, b) == (a == b)

    def test_two_classes_make_a_chain(self):
        codomain = chain(["p", "q", "r"])
        instance = make_instance(["u", "v", "w"], codomain, {"u": "p", "v": "q", "w": "q"})
        assert instance.classes == ((0,), (1, 2))
        order = instance.quotient
        assert order.labels == ("u", "v")
        assert leq(order, "u", "v") and not leq(order, "v", "u")

    def test_class_map_is_an_oie(self):
        for seed in range(10):
            assert is_oie(random_equation(seed).t_approx)

    def test_quotient_order_is_the_pulled_back_codomain_order(self):
        for seed in range(300):
            instance = random_equation(seed)
            codomain, order = instance.codomain, instance.quotient
            images = [codomain.labels[y] for y in instance.t_approx.assignment]
            for a, x in zip(order.labels, images):
                for b, y in zip(order.labels, images):
                    assert leq(order, a, b) == leq(codomain, x, y)

    def test_empty_domain_rejected(self):
        codomain = chain(["p"])
        domain = CarrierSet(())
        t = PosetMap(domain, codomain, ())
        with pytest.raises(UnknownElement):
            build_equation(domain, codomain, t)
        with pytest.raises(UnknownElement):
            EquationInstance(t)

    def test_constructor_and_builder_give_the_same_instance(self):
        derived = attrgetter("classes", "quotient", "t_approx", "quotient_completion", "images")
        grids = [generate(GeneratorSpec("gridfn", g=2, v=4, stencil=s)) for s in STENCILS]
        for built in [*map(random_equation, range(400)), *grids]:
            t = built.t
            direct = EquationInstance(t, built.max_cuts)
            assert direct == build_equation(t.source, t.target, t, built.max_cuts) == built
            assert derived(direct) == derived(built)

    def test_mismatched_map_rejected(self):
        codomain = chain(["p", "q"])
        other = CarrierSet(("z",))
        t = PosetMap(other, codomain, (0,))
        with pytest.raises(ParentMismatch):
            build_equation(CarrierSet(("u",)), codomain, t)


class TestImages:
    def test_images_are_the_extension_of_every_quotient_cut(self):
        for seed in range(25):
            instance = random_equation(seed)
            qc = instance.quotient_completion
            assignment = instance.t_approx.assignment
            assert len(instance.images) == qc.cut_count
            for mask, image in zip(qc.cut_masks, instance.images):
                members = [i for i in range(qc.parent.arity) if (mask >> i) & 1]
                naive = 0
                for i in members:
                    naive |= 1 << assignment[i]
                assert image == brute_closure(instance.codomain, naive)

    def test_solve_never_completes_the_codomain(self):
        for seed in range(10):
            instance = random_equation(seed)
            for cut in brute_cuts(instance.codomain):
                solve(instance, cut)
            assert "codomain_completion" not in vars(instance)
            assert instance.assumption_flags.empty_set_in_codomain_completion == (
                instance.codomain_completion.empty_set_is_cut
            )

    def test_codomain_completion_keeps_the_cap(self):
        codomain = build_poset([f"p{i}" for i in range(4)], [])
        instance = build_equation(
            CarrierSet(("u",)),
            codomain,
            PosetMap.from_names(CarrierSet(("u",)), codomain, {"u": "p0"}),
            max_cuts=5,
        )
        assert instance.quotient_completion.cut_count == 1
        assert solve(instance, codomain.subset(["p0"])).solvable
        with pytest.raises(ResourceCap):
            instance.codomain_completion


class TestTSharp:
    def test_principal_cuts_land_on_principals(self):
        codomain = chain(["p", "q", "r"])
        instance = make_instance(["u", "v", "w"], codomain, {"u": "p", "v": "q", "w": "q"})
        embedding = instance.quotient_completion.embedding
        for i, image in enumerate(instance.t_approx.assignment):
            assert instance.images[embedding[i]] == codomain.down_masks[image]

    def test_least_cut_maps_to_least_cut_when_empty_is_a_cut(self):
        codomain = build_poset(["p", "q"], [])
        instance = make_instance(["u", "v"], codomain, {"u": "p", "v": "q"})
        assert instance.quotient_completion.cut_masks[0] == 0
        assert instance.images[0] == 0

    def test_identity_equation_fixes_every_cut(self):
        poset = chain(["a", "b", "c"])
        instance = identity_instance(poset)
        for cut, image in zip(instance.quotient_completion.cuts, instance.images):
            assert Subset(poset, image).names() == cut.names()

    def test_foreign_cut_rejected(self):
        instance = one_point_into_antichain()
        other = macneille_completion(chain(["a", "b"]))
        with pytest.raises(ParentMismatch):
            instance.quotient_completion.index_of(other.cuts[0])


class TestSolve:
    def test_identity_solvable_everywhere(self):
        poset = build_poset(
            ["bot", "p", "q", "top"],
            [("bot", "p"), ("bot", "q"), ("p", "top"), ("q", "top")],
        )
        instance = identity_instance(poset)
        for target in instance.codomain_completion.cuts:
            report = solve(instance, target)
            assert report.solvable
            assert report.solution.names() == target.names()
            assert report.sup_of_images == report.inf_of_images == target

    def test_one_point_fixture_verdicts(self):
        instance = one_point_into_antichain()
        codomain = instance.codomain

        hit = solve(instance, codomain.subset(["p"]))
        assert hit.solvable and hit.solution.names() == ("u",)

        miss = solve(instance, codomain.subset(["q"]))
        assert not miss.solvable
        assert miss.sup_of_images.names() == ()
        assert miss.inf_of_images.names() == ("p", "q")

    def test_empty_target_documents_the_deviation(self):
        instance = one_point_into_antichain()
        report = solve(instance, instance.codomain.subset([]))
        assert not report.solvable
        # the one-class quotient has a minimum, so no quotient cut is
        # empty and the lower family is genuinely empty
        assert report.empty_family_flags.lower
        assert report.lower_family == ()
        assert report.assumption_flags.quotient_has_minimum
        assert not report.assumption_flags.empty_set_in_quotient_completion
        assert report.assumption_flags.empty_set_in_codomain_completion

    def test_non_cut_target_rejected(self):
        poset = chain(["a", "b", "c"])
        instance = identity_instance(poset)
        with pytest.raises(InvalidCut):
            solve(instance, poset.subset(["b"]))

    def test_foreign_target_rejected(self):
        instance = one_point_into_antichain()
        with pytest.raises(ParentMismatch):
            solve(instance, chain(["a", "b"]).subset(["a"]))

    def test_matches_exhaustive_search_on_seeded_instances(self):
        for seed in range(25):
            instance = random_equation(seed)
            for target in instance.codomain_completion.cuts:
                report = solve(instance, target)
                reference = brute_solve(instance, target)
                assert report.solvable == (reference is not None)
                if report.solvable:
                    assert report.solution.mask == reference.mask

    def test_sandwich_between_sup_and_inf(self):
        for seed in range(15):
            instance = random_equation(seed)
            for target in instance.codomain_completion.cuts:
                report = solve(instance, target)
                assert report.sup_of_images.mask & ~target.mask == 0
                assert target.mask & ~report.inf_of_images.mask == 0

    def test_families_listed_in_canonical_order(self):
        instance = one_point_into_antichain()
        report = solve(instance, instance.codomain.subset(["p"]))
        masks = [c.mask for c in report.lower_family]
        assert masks == sorted(masks, key=lambda m: (bin(m).count("1"), m))


class TestGlobalCharacter:
    def test_identity_is_globally_solvable(self):
        report = global_character(identity_instance(chain(["a", "b", "c"])))
        assert report.covers_embedded_codomain
        assert report.image_is_whole_completion
        assert report.flags_agree
        assert report.order_isomorphism is True
        assert report.completion_sizes[0] == report.completion_sizes[1]

    def test_constant_map_fails_both_conditions(self):
        codomain = chain(["p", "q"])
        instance = make_instance(["u", "v"], codomain, {"u": "p", "v": "p"})
        report = global_character(instance)
        assert not report.covers_embedded_codomain
        assert not report.image_is_whole_completion
        assert report.flags_agree
        assert report.order_isomorphism is None

    def test_bijection_onto_antichain_is_global(self):
        for n in (2, 3, 4):
            codomain = build_poset([f"p{i}" for i in range(n)], [])
            mapping = {f"x{i}": f"p{i}" for i in range(n)}
            instance = make_instance([f"x{i}" for i in range(n)], codomain, mapping)
            report = global_character(instance)
            assert report.covers_embedded_codomain
            assert report.image_is_whole_completion
            assert report.order_isomorphism is True
            assert report.completion_sizes[0] == report.completion_sizes[1]

    def test_flags_agree_on_seeded_instances(self):
        for seed in range(25):
            report = global_character(random_equation(seed))
            assert report.flags_agree


def _pair_scan_isomorphism(instance):
    """Reference: compare inclusion on every pair of quotient cuts."""
    qmasks = instance.quotient_completion.cut_masks
    images = instance.images
    return all(
        (qmasks[i] & ~qmasks[j] == 0)
        == (images[i] & ~images[j] == 0)
        for i in range(len(qmasks))
        for j in range(len(qmasks))
    )


class TestOrderIsomorphismOnCovers:
    def test_agrees_with_pair_scan_on_seeded_instances(self):
        outcomes = []
        for seed in range(100):
            instance = random_equation(seed)
            images = instance.images
            variants = [instance]
            if len(images) > 2:
                # swap the first image with the second, then with the last
                for j in (1, -1):
                    swapped = list(images)
                    swapped[0], swapped[j] = swapped[j], swapped[0]
                    variants.append(replace(instance, images=tuple(swapped)))
            for variant in variants:
                report = global_character(variant)
                if report.order_isomorphism is not None:
                    outcomes.append(report.order_isomorphism)
                    assert report.order_isomorphism == _pair_scan_isomorphism(variant)
        assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10

    def test_swapped_images_are_not_an_isomorphism(self):
        instance = identity_instance(chain(["a", "b", "c"]))
        images = instance.images
        swapped = replace(instance, images=(images[1], images[0]) + images[2:])
        assert global_character(instance).order_isomorphism is True
        assert global_character(swapped).order_isomorphism is False

    def test_increasing_bijection_without_increasing_inverse(self):
        # {} < {p0}, {p1} < {p0,p1} sent in canonical order onto a 4-chain
        # is increasing, but the inverse sends {p0} < {p1} to incomparables
        instance = identity_instance(build_poset(["p0", "p1"], []))
        line = chain(["c0", "c1", "c2", "c3"])
        flattened = replace(
            instance,
            codomain=line,
            images=macneille_completion(line).cut_masks,
        )
        assert global_character(flattened).order_isomorphism is False
