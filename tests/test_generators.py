import time

import pytest

from ordercomplete import cli
from ordercomplete.completion import macneille_completion
from ordercomplete.errors import BadSpec, ResourceCap
from ordercomplete.generators import (
    GeneratorSpec,
    describe,
    divisor_data,
    generate,
    random_equation,
)
from ordercomplete.mapext import PosetMap, is_increasing, is_oie
from ordercomplete.poset import has_maximum, has_minimum
from ordercomplete.solver import EquationInstance, global_character

from conftest import leq


class TestFamilies:
    def test_chain(self):
        poset = generate(GeneratorSpec("chain", n=3))
        assert poset.labels == ("c0", "c1", "c2")
        assert leq(poset, "c0", "c2")

    def test_antichain(self):
        poset = generate(GeneratorSpec("antichain", n=4))
        assert all(
            leq(poset, a, b) == (a == b) for a in poset.labels for b in poset.labels
        )

    def test_boolean(self):
        poset = generate(GeneratorSpec("boolean", k=2))
        assert poset.labels == ("0", "a", "b", "ab")
        assert leq(poset, "a", "ab") and not leq(poset, "a", "b")

    def test_boolean_self_complete(self):
        poset = generate(GeneratorSpec("boolean", k=2))
        assert macneille_completion(poset).cut_count == 4

    def test_divisor(self):
        poset = generate(GeneratorSpec("divisor", m=12))
        assert poset.labels == ("1", "2", "3", "4", "6", "12")
        assert leq(poset, "2", "6") and not leq(poset, "4", "6")

    def test_divisor_matches_trial_division(self):
        for m in range(1, 501):
            labels, _, _ = divisor_data(m)
            assert labels == tuple(str(d) for d in range(1, m + 1) if m % d == 0)

    def test_divisor_of_large_m_is_fast(self):
        start = time.perf_counter()
        labels, _, _ = divisor_data(10**12)
        assert time.perf_counter() - start < 1.0
        assert len(labels) == 169 and labels[-1] == str(10**12)
        with pytest.raises(ResourceCap):
            divisor_data(10**12 + 1)

    @pytest.mark.parametrize(
        "args",
        [
            ("--family", "divisor", "--m", str(10**20)),
            ("--family", "boolean", "--k", "100000"),
            ("--family", "gridfn", "--g", "100000", "--v", "10"),
            ("--family", "boolean", "--k", "13"),
            ("--family", "gridfn", "--g", "4", "--v", "9"),
        ],
    )
    def test_huge_instances_hit_cap_at_once(self, args):
        start = time.perf_counter()
        assert cli.main(["gen", *args]) == 3
        assert time.perf_counter() - start < 1.0

    def test_divisor_of_two_primes_is_boolean_square(self):
        divisors = generate(GeneratorSpec("divisor", m=15))
        square = generate(GeneratorSpec("boolean", k=2))
        iso = PosetMap.from_names(
            divisors, square, {"1": "0", "3": "a", "5": "b", "15": "ab"}
        )
        assert is_oie(iso)

    def test_random_is_reproducible(self):
        a = generate(GeneratorSpec("random", n=7, density=0.4, seed=9))
        b = generate(GeneratorSpec("random", n=7, density=0.4, seed=9))
        assert a == b
        c = generate(GeneratorSpec("random", n=7, density=0.4, seed=10))
        assert a != c

    def test_random_extreme_densities(self):
        empty = generate(GeneratorSpec("random", n=5, density=0.0, seed=1))
        assert not has_minimum(empty)
        total = generate(GeneratorSpec("random", n=5, density=1.0, seed=1))
        assert has_minimum(total) and has_maximum(total)

    def test_generate_is_deterministic(self):
        spec = GeneratorSpec("gridfn", g=2, v=2, stencil="dilate")
        assert generate(spec) == generate(spec)


class TestGridFn:
    def test_identity_stencil_small_grid(self):
        instance = generate(GeneratorSpec("gridfn", g=2, v=2, stencil="identity"))
        assert isinstance(instance, EquationInstance)
        assert instance.codomain.arity == 4
        assert has_minimum(instance.codomain) and has_maximum(instance.codomain)
        report = global_character(instance)
        assert report.image_is_whole_completion and report.order_isomorphism

    def test_stencils_are_monotone_on_the_function_poset(self):
        for stencil in ("identity", "dilate", "erode"):
            instance = generate(GeneratorSpec("gridfn", g=3, v=2, stencil=stencil))
            poset = instance.codomain
            phi = PosetMap(poset, poset, instance.t.assignment)
            assert is_increasing(phi)

    def test_dilate_collapses_fibers(self):
        instance = generate(GeneratorSpec("gridfn", g=2, v=2, stencil="dilate"))
        # 01 and 10 both dilate to 11, so the quotient is smaller
        assert len(instance.quotient.classes) < instance.domain.arity

    def test_default_stencil_is_identity(self):
        labels, _, mapping = describe(GeneratorSpec("gridfn", g=2, v=2))
        assert all(mapping[u] == u for u in labels)


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(BadSpec):
            generate(GeneratorSpec("mystery", n=3))

    def test_missing_parameter(self):
        with pytest.raises(BadSpec):
            generate(GeneratorSpec("chain"))

    def test_bad_density(self):
        with pytest.raises(BadSpec):
            generate(GeneratorSpec("random", n=3, density=1.5, seed=0))

    def test_bad_stencil(self):
        with pytest.raises(BadSpec):
            generate(GeneratorSpec("gridfn", g=2, v=2, stencil="blur"))

    def test_boolean_cap(self):
        with pytest.raises(ResourceCap):
            generate(GeneratorSpec("boolean", k=20))

    def test_gridfn_cap(self):
        with pytest.raises(ResourceCap):
            generate(GeneratorSpec("gridfn", g=13, v=2))

    def test_nonpositive_sizes(self):
        with pytest.raises(BadSpec):
            generate(GeneratorSpec("chain", n=0))
        with pytest.raises(BadSpec):
            generate(GeneratorSpec("divisor", m=0))


class TestRandomEquation:
    def test_reproducible(self):
        assert random_equation(3) == random_equation(3)

    def test_sizes_bounded(self):
        for seed in range(10):
            instance = random_equation(seed)
            assert 1 <= instance.domain.arity <= 6
            assert 2 <= instance.codomain.arity <= 6
