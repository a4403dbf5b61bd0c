import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordercomplete import checks
from ordercomplete import completion as completion_module
from ordercomplete import poset as poset_module
from ordercomplete.completion import (
    CompletedPoset,
    Cut,
    _canonical_order,
    _cover_edges,
    _reversed_masks,
    cut_label,
    inf_cuts,
    is_cut,
    macneille_completion,
    sup_cuts,
    to_dot,
    verify_macneille,
)
from ordercomplete.errors import InvalidCut, ParentMismatch, ResourceCap
from ordercomplete.generators import GeneratorSpec, generate
from ordercomplete.oracle import brute_bound, brute_covers, brute_cuts
from ordercomplete.mapext import PosetMap
from ordercomplete.poset import (
    CarrierSet,
    Poset,
    Subset,
    build_poset,
    lower_bounds,
    upper_bounds,
)
from ordercomplete.solver import build_equation, solve

from conftest import posets, posets_with_mask, principal


def _members(mask):
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def closure(poset, subset):
    """A^ul through the public bound operators."""
    return Cut(poset, lower_bounds(poset, upper_bounds(poset, subset)).mask)


def chain3():
    return build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])


def antichain(n):
    return build_poset([f"a{i}" for i in range(n)], [])


def standard(n, restored=()):
    """S_n: minimal a_i below maximal b_j whenever i != j; it has 2^n cuts.
    The pairs a_i < b_i with i in ``restored`` are put back."""
    lows = [f"a{i}" for i in range(n)]
    highs = [f"b{j}" for j in range(n)]
    pairs = [
        (a, b)
        for i, a in enumerate(lows)
        for j, b in enumerate(highs)
        if i != j or i in restored
    ]
    return build_poset(lows + highs, pairs)


def diamond():
    return build_poset(
        ["bot", "p", "q", "top"],
        [("bot", "p"), ("bot", "q"), ("p", "top"), ("q", "top")],
    )


def n_shape():
    """The N: a < c > b < d."""
    return build_poset(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")])


class TestCutClosure:
    def test_singleton_closes_to_principal(self):
        p = chain3()
        for x in p.labels:
            assert closure(p, p.subset([x])) == principal(p, x)

    def test_empty_set_on_antichain_stays_empty(self):
        p = antichain(2)
        assert closure(p, p.subset([])).names() == ()

    def test_empty_set_on_chain_closes_to_minimum(self):
        p = chain3()
        assert closure(p, p.subset([])).names() == ("a",)

    def test_parent_mismatch(self):
        with pytest.raises(ParentMismatch):
            closure(chain3(), antichain(2).subset([]))

    @given(posets_with_mask())
    def test_idempotent(self, case):
        poset, mask = case
        once = closure(poset, Subset(poset, mask))
        assert closure(poset, once) == once

    @given(posets_with_mask())
    def test_least_cut_above(self, case):
        poset, mask = case
        closed = closure(poset, Subset(poset, mask))
        assert mask & ~closed.mask == 0
        for other in brute_cuts(poset):
            if mask & ~other.mask == 0:
                assert closed.mask & ~other.mask == 0


class TestIsCut:
    def test_principal_down_set_is_cut(self):
        p = chain3()
        assert is_cut(p, p.subset(["a", "b"]))

    def test_middle_singleton_is_not(self):
        p = chain3()
        assert not is_cut(p, p.subset(["b"]))

    def test_full_carrier_always_is(self):
        for p in (chain3(), antichain(3), diamond()):
            assert is_cut(p, Subset(p, p.full_mask))

    def test_cut_constructor_rejects_non_cut(self):
        p = chain3()
        with pytest.raises(InvalidCut):
            Cut(p, p.subset(["b"]).mask)


class TestEnumeration:
    def test_chain_has_one_cut_per_element(self):
        c = macneille_completion(chain3())
        assert c.cut_labels() == ("{a}", "{a,b}", "{a,b,c}")

    def test_antichain_two(self):
        c = macneille_completion(antichain(2))
        assert c.cut_labels() == ("{}", "{a0}", "{a1}", "{a0,a1}")

    def test_cut_labels_over_three_bytes_of_elements(self):
        """``Subset.names`` and ``cut_label`` read the same label tables; both
        list the members at the set bits, in element order, in all three
        chunks: every cut of S_10 and seeded masks of a 20-label carrier."""
        c = macneille_completion(standard(10))  # 20 elements
        names = tuple("{" + ",".join(cut.names()) + "}" for cut in c.cuts)
        assert c.cut_labels() == names
        carrier = CarrierSet(tuple(f"e{i}" for i in range(20)))
        rng = random.Random(0)
        subsets = list(c.cuts) + [Subset(carrier, rng.getrandbits(20)) for _ in range(500)]
        for subset in subsets:
            labels = subset.parent.labels
            assert subset.names() == tuple(labels[i] for i in range(20) if subset.mask >> i & 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_antichain_counts(self, n):
        poset = antichain(n)
        fast = macneille_completion(poset)
        reference = brute_cuts(poset)
        assert [c.mask for c in reference] == list(fast.cut_masks)
        assert fast.cut_count == n + 2

    @given(posets())
    def test_matches_exhaustive_scan(self, poset):
        fast = macneille_completion(poset)
        assert [s.mask for s in brute_cuts(poset)] == list(fast.cut_masks)

    @given(posets())
    def test_full_carrier_always_and_empty_iff_no_minimum(self, poset):
        from ordercomplete.poset import has_minimum

        completion = macneille_completion(poset)
        assert poset.full_mask in completion.cut_masks
        assert completion.empty_set_is_cut == (not has_minimum(poset))

    def test_lattice_completes_to_itself(self):
        d = diamond()
        c = macneille_completion(d)
        assert c.cut_count == d.arity
        assert sorted(c.embedding) == list(range(c.cut_count))

    def test_cut_cap(self):
        p = antichain(12)
        with pytest.raises(ResourceCap):
            macneille_completion(p, max_cuts=10)

    @pytest.mark.parametrize("n", [3, 6])
    def test_cut_cap_is_exact(self, n):
        poset = standard(n)
        assert macneille_completion(poset, max_cuts=2**n).cut_count == 2**n
        with pytest.raises(ResourceCap):
            macneille_completion(poset, max_cuts=2**n - 1)

    def test_embedding_points_at_principal_cuts(self):
        p = diamond()
        c = macneille_completion(p)
        for i, label in enumerate(p.labels):
            assert c.cuts[c.embedding[i]] == principal(p, label)

    def test_completion_constructor_validates_order(self):
        p = chain3()
        c = macneille_completion(p)
        with pytest.raises(InvalidCut):
            CompletedPoset(p, tuple(reversed(c.cut_masks)))

    def test_completion_constructor_rejects_each_fault(self):
        p = standard(3)
        c = macneille_completion(p)
        masks = list(c.cut_masks)
        # an equal-size neighbour pair is ordered by the tie-break alone
        i = next(
            i for i in range(len(masks) - 1)
            if masks[i].bit_count() == masks[i + 1].bit_count()
        )
        swapped = masks[:i] + [masks[i + 1], masks[i]] + masks[i + 2 :]
        not_closed = p.subset(["a0", "a1", "a2"]).mask
        with_open = sorted(
            masks + [not_closed], key=lambda m: (m.bit_count(), _members(m))
        )
        faults = [
            ("duplicate", masks[:2] + masks[1:]),
            ("not a cut", with_open),
            ("canonical order", swapped),
            # a duplicate after an inversion is reported as the duplicate
            ("duplicate", swapped + masks[-1:]),
            # masks outside the six-element carrier
            *(("outside the carrier", masks + [bad]) for bad in (-1, 1 << 6, 1 << 9)),
        ]
        for message, listed in faults:
            with pytest.raises(InvalidCut, match=message):
                CompletedPoset(p, tuple(listed))

    @given(
        st.integers(0, 24).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=40)
            )
        )
    )
    def test_integer_key_orders_like_member_tuples(self, case):
        """Size, then the reversed mask descending, sorts like (size, member tuple)."""
        n, masks = case
        expected = sorted(set(masks), key=lambda m: (m.bit_count(), _members(m)))
        assert _canonical_order(_reversed_masks(n, masks)) == tuple(expected)

    @pytest.mark.parametrize("n", range(21))
    def test_integer_key_is_strictly_increasing_in_member_order(self, n):
        rng = random.Random(n)
        if n <= 12:
            masks = list(range(1 << n))
        else:
            masks = list({rng.getrandbits(n) for _ in range(2000)} | {0, (1 << n) - 1})
        rng.shuffle(masks)
        expected = sorted(masks, key=lambda m: (m.bit_count(), _members(m)))
        assert _canonical_order(_reversed_masks(n, masks)) == tuple(expected)


class TestBoundsInCompletion:
    def test_sup_singleton_is_identity(self):
        c = macneille_completion(chain3())
        for cut in c.cuts:
            assert sup_cuts(c, [cut]) == cut
            assert inf_cuts(c, [cut]) == cut

    def test_sup_of_embedded_members_is_closure(self):
        p = diamond()
        c = macneille_completion(p)
        family = [principal(p, "p"), principal(p, "q")]
        assert sup_cuts(c, family) == closure(p, p.subset(["p", "q"]))

    def test_antichain_sup_and_inf(self):
        p = antichain(2)
        c = macneille_completion(p)
        family = [principal(p, "a0"), principal(p, "a1")]
        assert sup_cuts(c, family).names() == ("a0", "a1")
        assert inf_cuts(c, family).names() == ()

    def test_empty_family_conventions(self):
        p = antichain(2)
        c = macneille_completion(p)
        assert sup_cuts(c, []).mask == 0
        assert inf_cuts(c, []).mask == p.full_mask
        chain = chain3()
        cc = macneille_completion(chain)
        assert sup_cuts(cc, []).names() == ("a",)

    def test_top_neutral_for_inf(self):
        p = antichain(2)
        c = macneille_completion(p)
        top = Cut(p, p.full_mask)
        for cut in c.cuts:
            assert inf_cuts(c, [top, cut]) == cut

    def test_foreign_cut_rejected(self):
        c = macneille_completion(chain3())
        other = antichain(2)
        with pytest.raises(ParentMismatch):
            sup_cuts(c, [Cut(other, 0)])

    def test_non_member_subset_rejected(self):
        p = chain3()
        c = macneille_completion(p)
        with pytest.raises(InvalidCut):
            sup_cuts(c, [p.subset(["b"])])

    @given(posets(), st.integers(0, 2**16 - 1))
    def test_agrees_with_bound_scan(self, poset, selector):
        completion = macneille_completion(poset)
        family = [
            completion.cuts[i]
            for i in range(completion.cut_count)
            if (selector >> i) & 1
        ]
        masks = [cut.mask for cut in family]
        assert sup_cuts(completion, family).mask == brute_bound(completion, masks, "sup")
        assert inf_cuts(completion, family).mask == brute_bound(completion, masks, "inf")

    @given(posets(), st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_sup_monotone_in_family(self, poset, first, second):
        completion = macneille_completion(poset)
        small = [
            completion.cuts[i]
            for i in range(completion.cut_count)
            if ((first & second) >> i) & 1
        ]
        big = [
            completion.cuts[i] for i in range(completion.cut_count) if (second >> i) & 1
        ]
        assert sup_cuts(completion, small).mask & ~sup_cuts(completion, big).mask == 0


class TestVerification:
    @pytest.mark.parametrize(
        "poset", [chain3(), antichain(2), diamond()], ids=["chain", "antichain", "diamond"]
    )
    def test_structured_posets_verify(self, poset):
        report = verify_macneille(macneille_completion(poset))
        assert report.embedding_ok

    def test_seeded_random_poset_verifies(self):
        from ordercomplete.generators import GeneratorSpec, generate

        poset = generate(GeneratorSpec("random", n=6, density=0.4, seed=11))
        report = verify_macneille(macneille_completion(poset))
        assert report.embedding_ok

    def test_report_surfaces_context(self):
        report = verify_macneille(macneille_completion(antichain(2)))
        # the full carrier has no dominating element, so its inf-side
        # family is empty; the convention still makes the equality hold
        assert report.inf_side_empty == ("{a0,a1}",)
        chain_report = verify_macneille(macneille_completion(chain3()))
        assert chain_report.inf_side_empty == ()

    def test_missing_middle_cut_is_named(self):
        # 64 cuts: far too many families for an exhaustive family scan
        poset = standard(6)
        full = macneille_completion(poset)
        middle = next(m for m in full.cut_masks if m.bit_count() == 3)
        # of two missing cuts, {a0,a1,a4} comes first in canonical order
        # although {a0,a2,a3} is the smaller mask
        pair = [poset.subset(["a0", "a2", "a3"]).mask, poset.subset(["a0", "a1", "a4"]).mask]
        for dropped, first in [([middle], middle), (pair, pair[1])]:
            masks = tuple(m for m in full.cut_masks if m not in dropped)
            named = re.escape(f"completion misses the cut {cut_label(poset, first)}")
            with pytest.raises(InvalidCut, match=named):
                CompletedPoset(poset, masks)
        assert CompletedPoset(poset, full.cut_masks) == full

    def test_verification_is_exhaustive_at_every_size(self):
        # 12, 14 and 20 elements: the checks are exact, with no sampling
        for n in (6, 7, 10):
            report = verify_macneille(macneille_completion(standard(n)))
            assert report.exhaustive and report.embedding_ok

    def test_corrupt_kernel_on_a_principal_set_is_named(self):
        p = chain3()
        completion = macneille_completion(p)
        b = p.index("b")
        table = list(p._up_tables[0])
        table[p.down_masks[b]] = p.full_mask  # (D_b)^u should be U_b = {b,c}
        p.__dict__["_up_tables"] = (tuple(table),)
        report = verify_macneille(completion)
        assert report.embedding_ok is False
        assert "principal sets of 'b' are not mutual bounds" in report.failures

    @pytest.mark.parametrize("case", ["divisor(60)", "S6"])
    def test_kernel_calls_are_linear(self, case, monkeypatch):
        poset = COVER_CASES[case]
        completion = macneille_completion(poset)
        calls = 0

        def counted(kernel):
            def wrapper(*args):
                nonlocal calls
                calls += 1
                return kernel(*args)

            return wrapper

        for name in ("_upper_mask", "_lower_mask", "_closure_mask"):
            kernel = getattr(completion_module, name)
            monkeypatch.setattr(completion_module, name, counted(kernel))
        assert verify_macneille(completion).embedding_ok
        assert 0 < calls <= 4 * (poset.arity + completion.cut_count)

    def test_check_scan_catches_a_kernel_fault_off_the_principal_sets(self, monkeypatch):
        p = diamond()
        # {p,q} is not principal and has the sup top: the union of its down-sets
        # {bot,p,q} must close to the full carrier; the join reads the closure
        union = p.subset(["bot", "p", "q"]).mask
        kernel = poset_module._closure_mask

        def faulty(poset, mask):
            return mask if mask == union else kernel(poset, mask)

        monkeypatch.setattr(poset_module, "_closure_mask", faulty)
        completion = macneille_completion(p)
        assert verify_macneille(completion).embedding_ok
        fails = checks.check_completion("diamond", completion)
        assert "diamond: embedding loses the supremum of {p,q}" in fails


def _count_validations(monkeypatch, cls):
    """Count the runs of ``cls.__post_init__`` from here on."""
    counter = {"calls": 0}
    validate = cls.__post_init__

    def counted(self):
        counter["calls"] += 1
        validate(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return counter


def _identity_instance(poset):
    domain = CarrierSet(poset.labels)
    return build_equation(domain, poset, PosetMap(domain, poset, tuple(range(poset.arity))))


class TestValidateOnce:
    """Internal values skip validation; the public constructors accept
    every one of them and compare equal."""

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_public_constructor_accepts_standard(self, n):
        c = macneille_completion(standard(n))
        assert CompletedPoset(c.parent, c.cut_masks) == c

    def test_public_constructor_accepts_corpus(self):
        for name, c in checks.corpus_posets(200):
            assert CompletedPoset(c.parent, c.cut_masks) == c, name

    @given(posets(max_n=12))
    def test_public_constructor_accepts_random(self, poset):
        c = macneille_completion(poset)
        certified = CompletedPoset(poset, c.cut_masks)
        assert certified == c
        assert certified.embedding == c.embedding

    @given(posets(max_n=8), st.integers(0, 2**16 - 1))
    def test_bound_cuts_are_cuts(self, poset, selector):
        c = macneille_completion(poset)
        family = [cut for i, cut in enumerate(c.cuts) if (selector >> i) & 1]
        for cut in (*c.cuts, sup_cuts(c, family), inf_cuts(c, family)):
            assert cut == Cut(poset, cut.mask)

    def test_solve_report_cuts_are_cuts(self):
        for _, instance in checks.equation_corpus(20):
            order = instance.quotient
            assert Poset(order.labels, order.up_masks) == order
            for target in instance.codomain_completion.cuts:
                report = solve(instance, target)
                cuts = [report.target, report.sup_of_images, report.inf_of_images]
                cuts += [*report.lower_family, *report.upper_family]
                if report.solution is not None:
                    cuts.append(report.solution)
                for cut in cuts:
                    assert cut == Cut(cut.parent, cut.mask)

    def test_inf_side_empty_matches_the_per_cut_scan(self):
        for name, c in checks.corpus_posets(200):
            p = c.parent
            # the cuts below no principal down-set
            scan = tuple(
                cut_label(p, m)
                for m in c.cut_masks
                if not any(m & ~d == 0 for d in p.down_masks)
            )
            assert verify_macneille(c).inf_side_empty == scan, name

    def test_completion_runs_no_validation(self, monkeypatch):
        poset = standard(10)
        counter = _count_validations(monkeypatch, CompletedPoset)
        assert macneille_completion(poset).cut_count == 1024
        assert counter["calls"] == 0

    def test_solve_runs_no_cut_validation(self, monkeypatch):
        poset = standard(8)
        instance = _identity_instance(poset)
        target = Subset(poset, poset.full_mask)
        counter = _count_validations(monkeypatch, Cut)
        report = solve(instance, target)
        assert report.solvable and len(report.lower_family) == 256
        assert counter["calls"] == 0

    def test_check_completion_validates_once_per_poset(self, monkeypatch):
        corpus = checks.corpus_posets(10)
        counter = _count_validations(monkeypatch, CompletedPoset)
        for name, p in corpus:
            assert checks.check_completion(name, p) == []
        assert counter["calls"] == len(corpus)

    def test_check_completion_reports_a_rejected_list(self, monkeypatch):
        def without_top(poset, cut_masks):
            return CompletedPoset(poset, cut_masks[:-1])

        monkeypatch.setattr(checks, "CompletedPoset", without_top)
        fails = checks.check_completion("pair", macneille_completion(antichain(2)))
        assert "pair: completion rejected: completion misses the cut {a0,a1}" in fails


def _dot_edges(text):
    return sorted(
        (int(i), int(j)) for i, j in re.findall(r"^  c(\d+) -> c(\d+);$", text, re.M)
    )


COVER_CASES = {
    "S6": standard(6),
    "S8": standard(8),
    "S9": standard(9),
    "S10": standard(10),
    # the capscale export shapes: S_10 with k of its pairs (a_i, b_i)
    # restored, boolean(4), divisor(60) and chain(20)
    **{f"S10+{k}": standard(10, range(k)) for k in (1, 2, 3, 4, 6)},
    "boolean(4)": generate(GeneratorSpec("boolean", k=4)),
    "divisor(60)": generate(GeneratorSpec("divisor", m=60)),
    "chain(20)": generate(GeneratorSpec("chain", n=20)),
    "gridfn(2,4)": generate(GeneratorSpec("gridfn", g=2, v=4)).codomain,
    **{
        f"random(seed={seed})": generate(
            GeneratorSpec("random", n=6 + seed, density=0.3, seed=seed)
        )
        for seed in range(6)
    },
}


def _cubic_covers(masks):
    """Cover edges (i, j) of inclusion on a family of masks: every pair
    tested against every third mask, O(k^3)."""
    n = len(masks)
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and masks[i] & ~masks[j] == 0 and not any(
            k not in (i, j) and masks[i] & ~masks[k] == 0 and masks[k] & ~masks[j] == 0
            for k in range(n)
        )
    ]


def _without_last_covers(edges, top):
    """Cover edges with the last upper cover of each cut dropped."""
    last = {i: j for i, j in edges}
    return [(i, j) for i, j in edges if last[i] != j]


class TestDotExport:
    @pytest.mark.parametrize("name", list(COVER_CASES))
    def test_edges_match_brute_covers(self, name):
        completion = macneille_completion(COVER_CASES[name])
        edges = _dot_edges(to_dot(completion))
        assert edges == sorted(brute_covers(completion))
        assert edges

    def test_brute_covers_match_the_cubic_scan(self):
        """The minimal closures of a cut plus one element are its covers in
        the inclusion order of the cut list, on every case the cubic scan
        can run: all but S_9, S_10 and S_10 with 1 or 2 pairs restored."""
        small = [macneille_completion(poset) for poset in COVER_CASES.values()]
        small = [completion for completion in small if completion.cut_count <= 256]
        assert len(small) == len(COVER_CASES) - 4
        for completion in small:
            assert brute_covers(completion) == _cubic_covers(completion.cut_masks)

    @pytest.mark.parametrize("fault", [
        _without_last_covers,
        lambda edges, top: edges + [(i, top) for i in range(top + 1)],
    ], ids=["last cover dropped", "edge to the full carrier"])
    def test_oracle_catches_a_cover_fault_at_cap_scale(self, fault, monkeypatch):
        """On S_10 (1,024 cuts) the DOT edges of a faulty cover kernel,
        which drops each cut's last upper cover or adds an edge from every
        cut to the full carrier, differ from the oracle's."""
        completion = macneille_completion(COVER_CASES["S10"])
        real = completion_module._cover_edges
        top = completion.cut_count - 1
        monkeypatch.setattr(completion_module, "_cover_edges",
                            lambda completion: fault(list(real(completion)), top))
        assert _dot_edges(to_dot(completion)) != sorted(brute_covers(completion))

    def test_cover_kernel_computes_no_closure(self, monkeypatch):
        """On S_10 the cover edges read one extent per cut and take every
        closure from them: k upper-bound calls, no lower bound or closure."""
        completion = macneille_completion(COVER_CASES["S10"])
        calls = {name: 0 for name in ("_upper_mask", "_lower_mask", "_closure_mask")}

        def counted(name, kernel):
            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(completion_module, name,
                                counted(name, getattr(completion_module, name)))
        assert len(list(_cover_edges(completion))) == 5120
        assert calls == {"_upper_mask": 1024, "_lower_mask": 0, "_closure_mask": 0}

    @pytest.mark.parametrize("poset, edges", [
        (generate(GeneratorSpec("boolean", k=2)), [(0, 1), (0, 2), (1, 3), (2, 3)]),
        # cuts {}, {a}, {b}, {b,d}, {a,b,c}, {a,b,c,d}: {b} reaches {a,b,c}
        # through c before {b,d} through d, so its edges are not sorted
        (n_shape(), [(0, 1), (0, 2), (1, 4), (2, 4), (2, 3), (3, 5), (4, 5)]),
    ], ids=["boolean(2)", "N"])
    def test_cover_edge_order(self, poset, edges):
        """Cut order, then each cover at the last element that generates
        it: ``_first_decrease`` names the first decreasing cover in this
        order."""
        assert list(_cover_edges(macneille_completion(poset))) == edges

    def test_dot_contains_cover_edges_only(self):
        text = to_dot(macneille_completion(chain3()))
        assert "c0 -> c1;" in text and "c1 -> c2;" in text
        assert "c0 -> c2;" not in text

    def test_missing_cut_raises_invalid_cut(self):
        p = antichain(2)
        full = macneille_completion(p)
        # {}, {a0}, {a1} without the top {a0,a1}: the constructor names
        # the missing cut before to_dot can run
        with pytest.raises(InvalidCut, match="misses the cut {a0,a1}"):
            CompletedPoset(p, full.cut_masks[:-1])

    def test_dot_marks_principal_cuts(self):
        p = antichain(2)
        text = to_dot(macneille_completion(p))
        assert text.count("peripheries=2") == 2
        assert '"{}"' in text
