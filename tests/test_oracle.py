import gc
import weakref

import pytest

from ordercomplete.completion import (
    CompletedPoset,
    _trusted,
    inf_cuts,
    macneille_completion,
    sup_cuts,
)
from ordercomplete.errors import NoBound, ResourceCap
from ordercomplete.generators import GeneratorSpec, generate, random_equation
from ordercomplete.oracle import (
    _brute_image_table,
    brute_bound,
    brute_cuts,
    brute_solve,
)
from ordercomplete.poset import build_poset


def chain3():
    return build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])


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

    def test_arity_cap(self):
        with pytest.raises(ResourceCap):
            brute_cuts(generate(GeneratorSpec("chain", n=17)))
        assert len(brute_cuts(generate(GeneratorSpec("boolean", k=4)))) == 16


class TestBruteBound:
    def test_singleton_family_returns_member(self):
        completion = macneille_completion(chain3())
        for cut in completion.cuts:
            assert brute_bound(completion, [cut], "sup") == cut
            assert brute_bound(completion, [cut], "inf") == cut

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
                assert sup_cuts(completion, family) == brute_bound(
                    completion, family, "sup"
                )
                assert inf_cuts(completion, family) == brute_bound(
                    completion, family, "inf"
                )

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
            brute_bound(partial, list(partial.cuts), "sup")


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
