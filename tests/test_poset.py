import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordercomplete.errors import (
    CycleDetected,
    DuplicateLabel,
    NotAPartialOrder,
    ParentMismatch,
    ResourceCap,
    UnknownElement,
)
from ordercomplete.generators import GeneratorSpec, generate, random_equation
from ordercomplete.completion import macneille_completion
from ordercomplete.oracle import brute_bound, brute_closure, brute_lower, brute_upper
from ordercomplete.poset import (
    Poset,
    Subset,
    _closure_mask,
    _join,
    _lower_mask,
    _meet,
    _table_and_each,
    _upper_mask,
    build_poset,
    has_maximum,
    has_minimum,
    lower_bounds,
    maximum_index,
    minimum_index,
    upper_bounds,
)

from conftest import leq, posets, posets_with_mask, posets_with_two_masks


def chain3():
    return build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])


def antichain2():
    return build_poset(["a", "b"], [])


def diamond():
    return build_poset(
        ["bot", "p", "q", "top"],
        [("bot", "p"), ("bot", "q"), ("p", "top"), ("q", "top")],
    )


class TestBuildPoset:
    def test_chain_from_covers_is_transitive(self):
        p = chain3()
        assert leq(p, "a", "c")
        assert not leq(p, "c", "a")

    def test_single_element(self):
        p = build_poset(["a"], [])
        assert p.arity == 1
        assert leq(p, "a", "a")

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            build_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_longer_cycle_detected(self):
        with pytest.raises(CycleDetected):
            build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            build_poset(["a", "a"], [])
        with pytest.raises(DuplicateLabel):
            Poset(("a", "a"), (1, 2))

    def test_unknown_element_in_pairs(self):
        with pytest.raises(UnknownElement):
            build_poset(["a"], [("a", "z")])

    def test_full_relation_must_be_reflexive(self):
        with pytest.raises(NotAPartialOrder):
            build_poset(["a", "b"], [("a", "b")], kind="full")

    def test_full_relation_must_be_transitive(self):
        pairs = [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")]
        with pytest.raises(NotAPartialOrder):
            build_poset(["a", "b", "c"], pairs, kind="full")

    def test_full_relation_must_be_antisymmetric(self):
        pairs = [("a", "a"), ("b", "b"), ("c", "c"), ("b", "c"), ("c", "b")]
        with pytest.raises(NotAPartialOrder, match="not antisymmetric on 'b', 'c'"):
            build_poset(["a", "b", "c"], pairs, kind="full")

    def test_relation_row_past_the_carrier(self):
        with pytest.raises(NotAPartialOrder, match="relation references unknown elements"):
            Poset(("a",), (0b11,))

    def test_full_relation_accepted(self):
        pairs = [("a", "a"), ("b", "b"), ("a", "b")]
        p = build_poset(["a", "b"], pairs, kind="full")
        assert leq(p, "a", "b")

    def test_arity_cap(self):
        labels = [f"x{i}" for i in range(25)]
        with pytest.raises(ResourceCap):
            build_poset(labels, [])
        assert build_poset(labels, [], max_arity=25).arity == 25

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            build_poset(["a"], [], kind="nonsense")

    def test_covers_build_is_what_the_validating_constructor_accepts(self):
        """``kind="covers"`` skips the constructor's axiom checks; on every
        shape the check corpora, the golden corpus and the capscale
        benchmark build from cover pairs, the constructor accepts the same
        relation, and a cycle is still refused."""
        built = [generate(spec) for spec in _cover_specs()]
        built += [random_equation(seed).codomain for seed in range(50)]
        built += [build_poset(*_standard(n, range(k))) for n in range(4, 11) for k in range(7)]
        for poset in built:
            assert type(poset.labels) is tuple and type(poset.up_masks) is tuple
            assert Poset(poset.labels, poset.up_masks) == poset
        labels, pairs = _standard(10, range(3))
        with pytest.raises(CycleDetected):
            build_poset(labels, pairs + [("b9", "a0")])


def _standard(n, restored=()):
    """Labels and cover pairs of S_n (a_i < b_j for i != j), with the pairs
    (a_i, b_i), i in ``restored``, put back."""
    lows, highs = [f"a{i}" for i in range(n)], [f"b{j}" for j in range(n)]
    return lows + highs, [(lows[i], highs[j]) for i in range(n) for j in range(n)
                          if i != j or i in restored]


def _cover_specs():
    specs = [GeneratorSpec("chain", n=n) for n in range(1, 21)]
    specs += [GeneratorSpec("antichain", n=n) for n in range(1, 9)]
    specs += [GeneratorSpec("boolean", k=k) for k in range(5)]
    specs += [GeneratorSpec("divisor", m=m) for m in range(1, 61)]
    densities = (0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    specs += [GeneratorSpec("random", n=n, density=d, seed=seed)
              for seed in range(10) for n in (2 + seed % 7, 4 + seed) for d in densities]
    return specs


def down_set(poset, label):
    return Subset(poset, poset.down_masks[poset.index(label)])


def up_set(poset, label):
    return Subset(poset, poset.up_masks[poset.index(label)])


class TestPrincipalSets:
    def test_down_set_chain(self):
        assert down_set(chain3(), "b").names() == ("a", "b")

    def test_down_set_antichain(self):
        assert down_set(antichain2(), "a").names() == ("a",)

    def test_down_set_top_of_lattice_is_carrier(self):
        d = diamond()
        assert down_set(d, "top").names() == ("bot", "p", "q", "top")

    def test_up_set_chain(self):
        assert up_set(chain3(), "b").names() == ("b", "c")

    def test_up_set_antichain(self):
        assert up_set(antichain2(), "b").names() == ("b",)

    def test_up_set_singleton(self):
        p = build_poset(["a"], [])
        assert up_set(p, "a").names() == ("a",)

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            chain3().index("z")


class TestBounds:
    def test_empty_set_bounds_are_full_carrier(self):
        for p in (chain3(), antichain2(), diamond()):
            empty = p.subset([])
            assert upper_bounds(p, empty).mask == p.full_mask
            assert lower_bounds(p, empty).mask == p.full_mask

    def test_antichain_pair_unbounded(self):
        p = antichain2()
        both = p.subset(["a", "b"])
        assert upper_bounds(p, both).names() == ()
        assert lower_bounds(p, both).names() == ()

    def test_chain_upper_bounds(self):
        p = chain3()
        assert upper_bounds(p, p.subset(["a", "b"])).names() == ("b", "c")

    def test_chain_lower_bounds(self):
        p = chain3()
        assert lower_bounds(p, p.subset(["b", "c"])).names() == ("a", "b")

    def test_parent_mismatch_rejected(self):
        with pytest.raises(ParentMismatch):
            upper_bounds(chain3(), antichain2().subset(["a"]))

    def test_subset_mask_must_fit_parent(self):
        with pytest.raises(UnknownElement):
            Subset(antichain2(), 1 << 5)


class TestExtremes:
    def test_chain_extremes(self):
        p = chain3()
        assert has_minimum(p) and has_maximum(p)

    def test_antichain_extremes(self):
        p = antichain2()
        assert not has_minimum(p) and not has_maximum(p)

    def test_fork_has_no_minimum(self):
        p = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
        assert not has_minimum(p)
        assert has_maximum(p)

    def test_minimum_maximum_index(self):
        p = chain3()
        assert minimum_index(p, p.full_mask) == 0
        assert maximum_index(p, p.full_mask) == 2
        assert minimum_index(antichain2(), antichain2().full_mask) is None


class TestOperatorLaws:
    @given(posets_with_two_masks())
    def test_bounds_antitone(self, case):
        poset, a, b = case
        small, big = a & b, b
        u_small = upper_bounds(poset, Subset(poset, small)).mask
        u_big = upper_bounds(poset, Subset(poset, big)).mask
        l_small = lower_bounds(poset, Subset(poset, small)).mask
        l_big = lower_bounds(poset, Subset(poset, big)).mask
        assert u_big & ~u_small == 0
        assert l_big & ~l_small == 0

    @given(posets_with_mask())
    def test_subset_below_its_closures(self, case):
        poset, mask = case
        u = upper_bounds(poset, Subset(poset, mask)).mask
        l = lower_bounds(poset, Subset(poset, mask)).mask
        ul = lower_bounds(poset, Subset(poset, u)).mask
        lu = upper_bounds(poset, Subset(poset, l)).mask
        assert mask & ~ul == 0
        assert mask & ~lu == 0

    @given(posets_with_mask())
    def test_triple_operator_collapses(self, case):
        poset, mask = case
        u = upper_bounds(poset, Subset(poset, mask)).mask
        l = lower_bounds(poset, Subset(poset, mask)).mask
        ul = lower_bounds(poset, Subset(poset, u)).mask
        lu = upper_bounds(poset, Subset(poset, l)).mask
        assert upper_bounds(poset, Subset(poset, ul)).mask == u
        assert lower_bounds(poset, Subset(poset, lu)).mask == l

    @given(posets_with_mask())
    def test_agrees_with_double_loop(self, case):
        poset, mask = case
        assert upper_bounds(poset, Subset(poset, mask)).mask == brute_upper(poset, mask)
        assert lower_bounds(poset, Subset(poset, mask)).mask == brute_lower(poset, mask)

    @given(posets_with_mask())
    def test_full_carrier_bounds_characterized(self, case):
        # upper bounds are everything iff the subset sits inside the
        # minimum; with no minimum that means the subset is empty
        poset, mask = case
        u = upper_bounds(poset, Subset(poset, mask)).mask
        l = lower_bounds(poset, Subset(poset, mask)).mask
        min_mask = lower_bounds(poset, Subset(poset, poset.full_mask)).mask
        max_mask = upper_bounds(poset, Subset(poset, poset.full_mask)).mask
        assert (u == poset.full_mask) == (mask & ~min_mask == 0)
        assert (l == poset.full_mask) == (mask & ~max_mask == 0)
        if not has_minimum(poset):
            assert (u == poset.full_mask) == (mask == 0)

    @given(posets_with_mask())
    def test_empty_bounds_mean_unbounded(self, case):
        poset, mask = case
        u = upper_bounds(poset, Subset(poset, mask)).mask
        bounded_above = any(
            mask & ~poset.down_masks[x] == 0 for x in range(poset.arity)
        )
        assert (u == 0) == (not bounded_above)

    @given(posets_with_mask())
    def test_principal_sets_are_singleton_bounds(self, case):
        poset, _ = case
        for x in range(poset.arity):
            single = Subset(poset, 1 << x)
            assert upper_bounds(poset, single).mask == poset.up_masks[x]
            assert lower_bounds(poset, single).mask == poset.down_masks[x]
            up = Subset(poset, poset.up_masks[x])
            down = Subset(poset, poset.down_masks[x])
            assert lower_bounds(poset, up).mask == poset.down_masks[x]
            assert upper_bounds(poset, down).mask == poset.up_masks[x]


def _kernel_agrees_with_oracle(poset, masks):
    for mask in masks:
        upper = brute_upper(poset, mask)
        assert _upper_mask(poset, mask) == upper
        assert _lower_mask(poset, mask) == brute_lower(poset, mask)
        assert _closure_mask(poset, mask) == brute_lower(poset, upper)


class TestTableKernel:
    """The per-byte tables must agree with the raw definitions on both
    sides of every chunk boundary (8 and 16 elements)."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16])
    def test_every_mask(self, n):
        poset = generate(GeneratorSpec("random", n=n, density=0.3, seed=n))
        _kernel_agrees_with_oracle(poset, range(1 << n))

    def test_empty_poset(self):
        _kernel_agrees_with_oracle(build_poset([], []), [0])

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 20])
    def test_one_batched_read_is_one_lookup_per_mask(self, n):
        poset = generate(GeneratorSpec("random", n=n, density=0.3, seed=n))
        rng = random.Random(n)
        masks = [0, poset.full_mask] + [rng.getrandbits(n) for _ in range(300)]
        assert _table_and_each(poset._down_tables, poset.full_mask, masks) == [
            _lower_mask(poset, mask) for mask in masks]
        assert _table_and_each(poset._up_tables, 0b101, []) == []

    @pytest.mark.parametrize("n", [17, 20])
    def test_sampled_masks(self, n):
        poset = generate(GeneratorSpec("random", n=n, density=0.2, seed=n))
        rng = random.Random(n)
        masks = [0, poset.full_mask] + [rng.getrandbits(n) for _ in range(2000)]
        _kernel_agrees_with_oracle(poset, masks)


class TestLatticeOperations:
    """``_join`` and ``_meet`` are the sup and inf of the cut lattice,
    the empty family included."""

    @given(posets(), st.data())
    def test_join_is_the_closure_of_the_union(self, poset, data):
        masks = data.draw(st.lists(st.integers(0, poset.full_mask), max_size=4))
        union = 0
        for mask in masks:
            union |= mask
        assert _join(poset, masks) == brute_closure(poset, union)

    @given(posets(), st.data())
    def test_meet_is_the_inf_of_the_cuts(self, poset, data):
        completion = macneille_completion(poset)
        family = data.draw(st.lists(st.sampled_from(completion.cut_masks), max_size=4))
        assert _meet(poset, family) == brute_bound(completion, family, "inf")
