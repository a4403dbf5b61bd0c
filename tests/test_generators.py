import json
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
from ordercomplete.poset import DEFAULT_MAX_ARITY, has_maximum, has_minimum
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
            expected = tuple(str(d) for d in range(1, m + 1) if m % d == 0)
            if len(expected) <= DEFAULT_MAX_ARITY:
                assert divisor_data(m)[0] == expected
            else:
                with pytest.raises(ResourceCap):
                    divisor_data(m)

    def test_divisor_of_large_m_is_fast(self):
        m = 999983 * 1000003  # two primes near 10**6: the scan runs to isqrt(m)
        start = time.perf_counter()
        labels, _, _ = divisor_data(m)
        assert time.perf_counter() - start < 1.0
        assert labels == ("1", "999983", "1000003", str(m))
        for too_big in (10**12, 10**12 + 1):  # 169 divisors; past DIVISOR_MAX_M
            start = time.perf_counter()
            with pytest.raises(ResourceCap):
                divisor_data(too_big)
            assert time.perf_counter() - start < 1.0

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


# each gen family just at and just above the default arity cap of 20
GEN_AT_THE_CAP = [
    (("--family", "chain", "--n", "20"), 0),
    (("--family", "chain", "--n", "21"), 3),
    (("--family", "antichain", "--n", "20"), 0),
    (("--family", "antichain", "--n", "21"), 3),
    (("--family", "random", "--n", "20"), 0),
    (("--family", "random", "--n", "21"), 3),
    (("--family", "boolean", "--k", "4"), 0),
    (("--family", "boolean", "--k", "5"), 3),
    (("--family", "divisor", "--m", "60"), 0),
    (("--family", "divisor", "--m", "720720"), 3),
    (("--family", "gridfn", "--g", "2", "--v", "4"), 0),
    (("--family", "gridfn", "--g", "3", "--v", "3"), 3),
]


class TestGenFeedsReaders:
    """What ``gen`` emits, the reading commands accept at their default caps."""

    @pytest.mark.parametrize(
        "args, code", GEN_AT_THE_CAP, ids=["-".join(args[1::2]) for args, _ in GEN_AT_THE_CAP]
    )
    def test_gen_output_is_read_at_default_caps(self, args, code, tmp_path, capsys):
        path = tmp_path / "instance.json"
        assert cli.main(["gen", *args, "--output", str(path)]) == code
        assert capsys.readouterr().out == ""
        if code == 3:
            assert not path.exists()
            assert cli.main(["gen", *args]) == 3
            assert capsys.readouterr().out == ""
        elif "gridfn" in args:
            target = tmp_path / "target.json"
            codomain = json.loads(path.read_text())["codomain"]["elements"]
            target.write_text(json.dumps({"principal": codomain[-1]}))
            assert cli.main(["solve", "--input", str(path), "--target", str(target)]) in (0, 1)
        else:
            assert cli.main(["complete", "--input", str(path)]) == 0

    def test_every_spec_field_is_a_gen_option(self):
        parser = cli.build_parser()
        for name in GeneratorSpec._fields:
            value = {"family": "chain", "density": "0.5", "stencil": "dilate"}.get(name, "2")
            args = parser.parse_args(["gen", "--family", "chain", f"--{name}", value])
            assert str(getattr(args, name)) == value


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
        assert len(instance.classes) < instance.domain.arity

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
