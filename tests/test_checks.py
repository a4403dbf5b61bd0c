"""The poset check suites: what they scan, how much, and that the family
scan catches a wrong bound; that the equation check catches a class
map that is not an order isomorphic embedding; and that every failure
line of the checks, and every broken invariant of the solver and the
oracle, fires on one injected fault.

The coverage digest pins every family ``_index_masks`` returns at
the call sites of the suites, and the element masks ``_sampled_masks``
picks on the check corpus and on the golden ``check --input`` posets.  A
change to the sampling that moves any of them fails here, so a faster
scan cannot quietly check less on the gate's inputs.
"""

import hashlib
from collections import Counter

import pytest
from hypothesis import given

from ordercomplete import checks, cli, mapext, oracle, solver
from ordercomplete.completion import _closure_mask, _trusted, macneille_completion
from ordercomplete.generators import GeneratorSpec, generate, random_equation
from ordercomplete.jsonio import equation_to_data, poset_from_data
from ordercomplete.mapext import PosetMap
from ordercomplete.poset import CarrierSet, _mask_members, has_maximum
from ordercomplete.solver import EquationInstance, GlobalReport

from conftest import posets
from test_golden import _family, _standard, _write, check_inputs

COVERAGE = "6a5c385185538fe244b52f0a4a8f25e93f7208d2846fa3ea91ef455f74d437b8"


def _coverage_digest():
    digest = hashlib.sha256()

    def add(*parts):
        digest.update(repr(parts).encode("ascii") + b"\n")

    for seed, budget in ((0, checks.BOUND_SCAN_SAMPLE), (1, checks.FAMILY_SAMPLE)):
        for count in range(65):
            families = [_mask_members(m) for m in checks._index_masks(count, seed, budget)]
            add(seed, budget, count, families)
    for name, completion in checks.corpus_posets(200):
        add(name, checks._sampled_masks(completion.parent))
    for name, data, suites in check_inputs():
        if "cutcalc" in suites:
            add(name, checks._sampled_masks(poset_from_data(data)))
    return digest.hexdigest()


def test_coverage_digest():
    assert _coverage_digest() == COVERAGE


def test_family_count_is_what_the_scan_yields():
    """The count the ``check macneille`` summary line reports."""
    for budget in (checks.BOUND_SCAN_SAMPLE, checks.FAMILY_SAMPLE):
        for count in range(70):
            masks = checks._index_masks(count, 0, budget)
            assert checks._family_count(count, budget) == len(masks)


def test_bound_scan_work_is_bounded_by_its_sample(monkeypatch):
    """Above the exhaustive threshold the oracle sees at most the empty
    and full families, a sample of singletons and the random families."""
    completion = macneille_completion(poset_from_data(_standard(11), max_arity=22))
    assert completion.cut_count == 2048
    calls = []
    real = checks.brute_bound

    def counted(completion, family, which):
        calls.append(which)
        return real(completion, family, which)

    monkeypatch.setattr(checks, "brute_bound", counted)
    assert checks.check_completion("S_11", completion) == []
    assert len(calls) <= 2 * (2 + 2 * checks.BOUND_SCAN_SAMPLE)


@pytest.mark.parametrize("which, kernel", [("sup", "_join"), ("inf", "_meet")])
def test_bound_scan_catches_a_wrong_bound(which, kernel, monkeypatch):
    """The oracle scan in check macneille checks the sup and inf of cut
    families: a lattice operation wrong on a single family must fail it.
    In a lattice every cut is principal, so the embedding check, which
    reads the same operation on the element family {4, 6}, names it too."""
    completion = macneille_completion(generate(GeneratorSpec("divisor", m=12)))
    indices = tuple(completion.embedding[completion.parent.index(x)] for x in "46")
    four, six = (completion.cut_masks[i] for i in indices)
    real = getattr(checks, kernel)

    def faulty(poset, masks):
        # the sup of <4] and <6] is <12], their inf <2]
        masks = list(masks)
        return four if masks == [four, six] else real(poset, masks)

    monkeypatch.setattr(checks, kernel, faulty)
    bound = {"sup": "supremum", "inf": "infimum"}[which]
    assert checks.check_completion("divisor(12)", completion) == [
        f"divisor(12): embedding loses the {bound} of {{4,6}}",
        f"divisor(12): {which} disagrees with the bound scan on {indices}",
    ]


@pytest.mark.parametrize("which, kernel", [("sup", "_join"), ("inf", "_meet")])
def test_exhaustive_family_scan_names_a_wrong_bound(which, kernel, monkeypatch):
    """On divisor(60) (12 cuts) the scan checks all 4,096 cut families; a
    lattice operation wrong on one family of three cuts is named by its cut
    indices.  Cuts 3, 4 and 11 are <5], <4] and <60], family 0x818 of the
    scan: the embedding check passes the same down-sets in element order,
    <4] first, so only the family scan sees the faulty list."""
    completion = macneille_completion(generate(GeneratorSpec("divisor", m=60)))
    indices = (3, 4, 11)
    family = [completion.cut_masks[i] for i in indices]
    real = getattr(checks, kernel)

    def faulty(poset, masks):
        masks = list(masks)
        return poset.full_mask ^ real(poset, masks) if masks == family else real(poset, masks)

    monkeypatch.setattr(checks, kernel, faulty)
    assert checks.check_completion("divisor(60)", completion) == [
        f"divisor(60): {which} disagrees with the bound scan on (3, 4, 11)",
    ]


# divisor(12) lists 1, 2, 3, 4, 6, 12, so mask 0x3 is {1,2}, the down-set of 2,
# and the join sees it as the family of the down-sets of 1 and 2: (0x1, 0x3)
@pytest.mark.parametrize(
    "kernel, fault_on, expected",
    [
        ("_upper_mask", 0x3, [
            "operators disagree with the double loop on 0x3",
            "bounds are not antitone on 0x2 <= 0x3",
            "triple bound operator did not collapse on 0x2",
            "principal sets are not mutual bounds at 1",
            "closure is not the sup of embedded members on 0x3",
        ]),
        ("_lower_mask", 0x3, [
            "operators disagree with the double loop on 0x3",
            "boundedness below mismatched on 0x3",
            "bounds are not antitone on 0x3 <= 0x7",
            "triple bound operator did not collapse on 0x3",
        ]),
        ("_join", (0x1, 0x3), ["closure is not the sup of embedded members on 0x3"]),
        # the bounds of the empty set: the full-carrier test names them at 0x0
        ("_upper_mask", 0x0, [
            "operators disagree with the double loop on 0x0",
            "full-carrier test for upper bounds broke on 0x0",
            "bounds are not antitone on 0x0 <= 0x1",
            "triple bound operator did not collapse on 0x0",
        ]),
        ("_lower_mask", 0x0, [
            "operators disagree with the double loop on 0x0",
            "full-carrier test for lower bounds broke on 0x0",
            "bounds are not antitone on 0x0 <= 0x1",
            "triple bound operator did not collapse on 0x0",
        ]),
    ],
)
def test_bound_calculus_catches_a_one_mask_fault(kernel, fault_on, expected, monkeypatch):
    """check cutcalc names each identity a kernel breaks when it is wrong
    on a single argument: one bit of its result flipped."""
    completion = macneille_completion(generate(GeneratorSpec("divisor", m=12)))
    real = getattr(checks, kernel)

    def faulty(poset, arg):
        if kernel == "_join":
            arg = tuple(arg)
        out = real(poset, arg)
        return out ^ 1 if arg == fault_on else out

    monkeypatch.setattr(checks, kernel, faulty)
    assert checks.check_bound_calculus("divisor(12)", completion) == [
        f"divisor(12): {line}" for line in expected
    ]


@pytest.mark.parametrize("table", ["_up_tables", "_down_tables"])
@pytest.mark.parametrize("chunk", [0, 1, 2])
@pytest.mark.parametrize("entry", [5, -1])
def test_bound_calculus_names_a_wrong_table_entry_in_every_chunk(table, chunk, entry):
    """check cutcalc compares every mask inside one chunk of 8 elements with
    the double loop, so it names a flipped bit in any entry of either bound
    table: here bit 0 of entry 5 and of the last entry, in each of the three
    chunks of S_10."""
    completion = macneille_completion(poset_from_data(_standard(10)))
    poset = completion.parent
    tables = [list(chunk_table) for chunk_table in getattr(poset, table)]
    entry %= len(tables[chunk])
    tables[chunk][entry] ^= 1
    vars(poset)[table] = tuple(map(tuple, tables))
    line = f"S_10: operators disagree with the double loop on {entry << 8 * chunk:#x}"
    assert line in checks.check_bound_calculus("S_10", completion)


def test_bound_calculus_checks_antitonicity_on_every_step_of_a_full_scan(monkeypatch):
    """Below the mask cap cutcalc tests antitonicity on every one-element
    step (m, m + {x}), so a fault on one mask of divisor(60) (12 elements)
    is named even where a seeded sample of nested pairs never reaches it."""
    completion = macneille_completion(generate(GeneratorSpec("divisor", m=60)))
    assert completion.parent.arity == 12
    real = checks._upper_mask

    def faulty(poset, mask):
        out = real(poset, mask)
        return out | 1 if mask == 0x11A else out

    monkeypatch.setattr(checks, "_upper_mask", faulty)
    fails = checks.check_bound_calculus("divisor(60)", completion)
    assert "divisor(60): bounds are not antitone on 0x1a <= 0x11a" in fails


def test_bound_calculus_names_a_closure_that_is_not_least(monkeypatch):
    """The least-cut test reads every principal down-set, whatever the cut
    count, so on S_10 (1,024 cuts) it names a closure of {a0,a3,a4,a8}
    returned as its upper cover {a0,a3,a4,a6,a8}: a cut, and above the mask."""
    completion = macneille_completion(poset_from_data(_standard(10)))
    real = checks._lower_mask

    def faulty(poset, mask):
        out = real(poset, mask)
        return 0x159 if out == 0x119 else out

    monkeypatch.setattr(checks, "_lower_mask", faulty)
    fails = checks.check_bound_calculus("S_10", completion)
    assert "S_10: closure of 0x119 is not least above it" in fails


@pytest.mark.parametrize("kernel", ["_upper_mask", "_lower_mask"])
@pytest.mark.parametrize("x", [3, 11, 19])
def test_bound_calculus_names_a_wrong_singleton_bound(kernel, x, monkeypatch):
    """The bounds of a singleton are its principal sets; the comparison with
    the double loop covers every singleton, in each of the three chunks of S_10."""
    completion = macneille_completion(poset_from_data(_standard(10)))
    real = getattr(checks, kernel)

    def faulty(poset, mask):
        out = real(poset, mask)
        return out ^ 1 if mask == 1 << x else out

    monkeypatch.setattr(checks, kernel, faulty)
    line = f"S_10: operators disagree with the double loop on {1 << x:#x}"
    assert line in checks.check_bound_calculus("S_10", completion)


# divisor(60) lists 1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60; each fault flips
# one result bit on one mask and names the first failure of each loop it breaks
@pytest.mark.parametrize(
    "kernel, fault_on, bit, expected",
    [
        # {1,3,4,5,6,10,15} has only 60 above it: no upper bound left
        ("_upper_mask", 0x17D, 11, [
            "boundedness above mismatched on 0x17d",
            "bounds are not antitone on 0x17d <= 0x17f",
            "triple bound operator did not collapse on 0x17d",
        ]),
        # {1,3,5,15} has only 1 below it: no lower bound left
        ("_lower_mask", 0x115, 0, [
            "boundedness below mismatched on 0x115",
            "bounds are not antitone on 0x115 <= 0x117",
            "triple bound operator did not collapse on 0x115",
        ]),
        # {2,20} has the upper bounds {20,60}; dropping 20 closes it to <60]
        ("_upper_mask", 0x202, 9, [
            "bounds are not antitone on 0x202 <= 0x203",
            "closure of 0x202 is not least above it",
            "closure is not the sup of embedded members on 0x202",
        ]),
        # {4,30} has the lower bounds {1,2}; dropping 1 breaks its collapse only
        ("_lower_mask", 0x408, 0, [
            "bounds are not antitone on 0x408 <= 0x409",
            "triple bound operator did not collapse on 0x408",
        ]),
        # the join of <2], <4], <5], <15] (mask 0x11a): the sup line alone
        ("_join", 0x11A, 0, ["closure is not the sup of embedded members on 0x11a"]),
    ],
)
def test_bound_calculus_names_a_one_bit_fault_on_a_full_scan(kernel, fault_on, bit, expected,
                                                             monkeypatch):
    """On divisor(60) (12 elements) the comparison with the double loop
    covers only the masks inside one chunk of 8, so the loops over the mask
    arrays must name a fault on any other mask: each one-bit fault here is
    named by the loops it breaks, first failure each."""
    completion = macneille_completion(generate(GeneratorSpec("divisor", m=60)))
    down = completion.parent.down_masks
    family = tuple(down[x] for x in range(12) if fault_on >> x & 1)
    real = getattr(checks, kernel)

    def faulty(poset, arg):
        out = real(poset, arg)
        hit = tuple(arg) == family if kernel == "_join" else arg == fault_on
        return out ^ 1 << bit if hit else out

    monkeypatch.setattr(checks, kernel, faulty)
    assert checks.check_bound_calculus("divisor(60)", completion) == [
        f"divisor(60): {line}" for line in expected
    ]


def test_bound_calculus_reads_each_kernel_once_per_mask(monkeypatch):
    """On divisor(60) every one of the 4,096 masks is scanned, and each bound
    kernel is read at most once per mask."""
    completion = macneille_completion(generate(GeneratorSpec("divisor", m=60)))
    calls = {"_upper_mask": Counter(), "_lower_mask": Counter()}
    for kernel, counts in calls.items():
        def counted(poset, mask, real=getattr(checks, kernel), counts=counts):
            counts[mask] += 1
            return real(poset, mask)

        monkeypatch.setattr(checks, kernel, counted)
    assert checks.check_bound_calculus("divisor(60)", completion) == []
    for counts in calls.values():
        assert set(counts) == set(range(4096))
        assert set(counts.values()) == {1}


def _sampled(name):
    """A fresh completion of one of the posets that cutcalc samples."""
    spec = {"boolean(4)": GeneratorSpec("boolean", k=4), "chain(13)": GeneratorSpec("chain", n=13),
            "chain(20)": GeneratorSpec("chain", n=20)}.get(name)
    return macneille_completion(poset_from_data(_standard(10)) if spec is None else generate(spec))


# boolean(4) lists its elements by subset index (0, a, b, ab, c, ac, bc, abc,
# d, ...), S_10 as a0 to a9, then b0 to b9; each fault flips one result bit on
# one sampled mask and names the first failure of each loop it breaks
@pytest.mark.parametrize(
    "poset, kernel, fault_on, bit, expected",
    [
        # {a,bc,d} has only abcd above it: no upper bound left
        ("boolean(4)", "_upper_mask", 0x142, 15, [
            "boundedness above mismatched on 0x142",
            "bounds are not antitone on 0x142 <= 0x414e",
            "triple bound operator did not collapse on 0x142",
        ]),
        # {0,b,c,ac,d} has only 0 below it: no lower bound left
        ("boolean(4)", "_lower_mask", 0x135, 0, [
            "boundedness below mismatched on 0x135",
            "triple bound operator did not collapse on 0x135",
        ]),
        ("boolean(4)", "_join", 0x43, 0, ["closure is not the sup of embedded members on 0x43"]),
        # {a1,a2,a4,a5,b0} has only b0 above it
        ("S_10", "_upper_mask", 0x436, 10, [
            "boundedness above mismatched on 0x436",
            "closure of 0x436 is not least above it",
            "closure is not the sup of embedded members on 0x436",
        ]),
        # {a2,b1,b4,b5,b8} has only a2 below it
        ("S_10", "_lower_mask", 0x4C804, 2, ["boundedness below mismatched on 0x4c804"]),
        ("S_10", "_join", 0x91, 0, ["closure is not the sup of embedded members on 0x91"]),
    ],
)
def test_bound_calculus_names_a_one_bit_fault_on_a_sample(poset, kernel, fault_on, bit, expected,
                                                          monkeypatch):
    """Above 4,096 masks the loops read the sampled masks' kernel values and
    down-set members off their own arrays, so a one-bit fault on one sampled
    mask is named by the loops it breaks, first failure each."""
    completion = _sampled(poset)
    assert fault_on in checks._sampled_masks(completion.parent)
    down = completion.parent.down_masks
    family = tuple(down[x] for x in range(completion.parent.arity) if fault_on >> x & 1)
    real = getattr(checks, kernel)

    def faulty(poset, arg):
        out = real(poset, arg)
        hit = tuple(arg) == family if kernel == "_join" else arg == fault_on
        return out ^ 1 << bit if hit else out

    monkeypatch.setattr(checks, kernel, faulty)
    assert checks.check_bound_calculus(poset, completion) == [f"{poset}: {line}" for line in expected]


def test_bound_calculus_reads_each_kernel_once_per_sampled_mask(monkeypatch):
    """On boolean(4) (16 elements) every sampled mask is read, and each bound
    kernel is read at most once per mask, on the scan or off it."""
    completion = _sampled("boolean(4)")
    calls = {"_upper_mask": Counter(), "_lower_mask": Counter()}
    for kernel, counts in calls.items():
        def counted(poset, mask, real=getattr(checks, kernel), counts=counts):
            counts[mask] += 1
            return real(poset, mask)

        monkeypatch.setattr(checks, kernel, counted)
    assert checks.check_bound_calculus("boolean(4)", completion) == []
    masks = checks._sampled_masks(completion.parent)
    assert len(masks) == 4096
    for counts in calls.values():
        assert set(masks) < set(counts)
        assert set(counts.values()) == {1}


@pytest.mark.parametrize("poset", ["boolean(4)", "chain(13)", "chain(20)", "S_10"])
def test_down_members_list_each_mask_in_element_order(poset):
    """The table reader of the sampled path gives each sampled mask's
    principal down-sets, in element order, as the member list does."""
    parent = _sampled(poset).parent
    masks = checks._sampled_masks(parent)
    down = parent.down_masks
    assert checks._down_members(parent, masks) == [
        tuple(down[i] for i in _mask_members(m)) for m in masks
    ]


@given(posets(max_n=12))
def test_poset_suites_pass_on_random_posets(poset):
    """Both poset suites pass on every poset of up to 12 elements, the
    whole-array path of cutcalc included."""
    completion = macneille_completion(poset)
    assert checks.check_bound_calculus("p", completion) == []
    assert checks.check_completion("p", completion) == []


@pytest.mark.parametrize("suite, line", [
    ("cutcalc", "input: bounds leave the carrier on 0x3"),
    ("macneille", "input: bounds of {1,2} leave the carrier"),
])
@pytest.mark.parametrize("fault", [lambda out, n: out | 1 << n, lambda out, n: ~out],
                         ids=["over-range", "negative"])
def test_poset_suites_name_a_bound_off_the_carrier(suite, line, fault, tmp_path, monkeypatch,
                                                   capsys):
    """A kernel result off the carrier, above it or negative, is a failure
    line and exit 1: it would index a table or a mask array out of range,
    or a negative one from its end."""
    real = checks._upper_mask

    def faulty(poset, mask):
        out = real(poset, mask)
        return fault(out, poset.arity) if mask == 0x3 else out

    monkeypatch.setattr(checks, "_upper_mask", faulty)
    path = _write(tmp_path / "divisor12.json", _family(family="divisor", m=12))
    assert cli.main(["check", suite, "--input", path]) == 1
    assert capsys.readouterr() == (f"FAIL {suite} on 1 posets\n  counterexample: {line}\n", "")


def test_bound_calculus_names_a_closure_off_the_carrier_above_the_mask_cap(monkeypatch):
    """Above 4,096 masks the closures read the kernel on masks off the scan:
    on S_10 the upper bounds of 0x91 are 0xdb800, which is not sampled, and a
    lower bound of it off the carrier would index the last table (16 entries)
    out of range; it is named by the sampled mask instead."""
    completion = macneille_completion(poset_from_data(_standard(10)))
    assert 0xDB800 not in checks._sampled_masks(completion.parent)
    real = checks._lower_mask

    def faulty(poset, mask):
        out = real(poset, mask)
        return out | 1 << 20 if mask == 0xDB800 else out

    monkeypatch.setattr(checks, "_lower_mask", faulty)
    assert checks.check_bound_calculus("S_10", completion) == [
        "S_10: bounds leave the carrier on 0x91",
    ]


def test_macneille_names_a_table_fault_instead_of_raising():
    """A wrong bound table entry (bit 0 of entry 5 of S_10's third
    ``_down_tables`` chunk) ends in failure lines: the oracle returns masks
    and builds no ``Cut`` that the faulty kernel could reject."""
    completion = macneille_completion(poset_from_data(_standard(10)))
    poset = completion.parent
    tables = [list(chunk_table) for chunk_table in poset._down_tables]
    tables[2][5] ^= 1
    vars(poset)["_down_tables"] = tuple(map(tuple, tables))
    assert checks.check_completion("S_10", completion) == [
        "S_10: completion rejected: {a0,a7,a9} listed in a completion but is not a cut",
        "S_10: sup disagrees with the bound scan on (202,)",
    ]


# equation(seed=0) solves {y0,y1} by the quotient cut 0b11, and 0b10 is the
# quotient cut sent to {y0}
@pytest.mark.parametrize(
    "fault, line",
    [
        (lambda out: (False, None, *out[2:]),
         "verdict mismatch on {y0,y1}: criterion=False search=True"),
        (lambda out: (True, 0b10, *out[2:]), "solutions differ on {y0,y1}"),
    ],
    ids=["verdict", "solution"],
)
def test_equation_check_names_a_faulty_solver_kernel(fault, line, monkeypatch, capsys):
    """check theorem41 names a wrong verdict and a wrong solution of the
    solver's criterion kernel, and exits 1."""
    real = checks._criterion

    def faulty(instance, f_mask):
        out = real(instance, f_mask)
        return fault(out) if f_mask == 0b11 else out

    monkeypatch.setattr(checks, "_criterion", faulty)
    assert cli.main(["check", "theorem41", "--count", "1"]) == 1
    assert capsys.readouterr().out == (
        "FAIL solvability criterion on 1 instances\n"
        f"  counterexample: equation(seed=0): {line}\n"
    )


def test_equation_check_names_a_family_bound_off_the_cut_list(monkeypatch):
    """A sup of the lower family that is no quotient cut is a failure line,
    not a KeyError."""
    instance = random_equation(0)
    real = checks._join

    def faulty(poset, masks):
        return 1 << 10 if poset is instance.quotient else real(poset, masks)

    monkeypatch.setattr(checks, "_join", faulty)
    fails = checks.check_equation("equation(seed=0)", instance)
    assert fails == [
        f"equation(seed=0): a family bound is not a quotient cut on {cut.label()}"
        for cut in instance.codomain_completion.cuts
    ]


def test_closed_forms_runs_the_lattice_test_on_every_lattice(monkeypatch):
    seen = []
    real = checks._check_self_complete

    def recorded(name, poset):
        seen.append(name)
        return real(name, poset)

    monkeypatch.setattr(checks, "_check_self_complete", recorded)
    assert checks.check_closed_forms() == []
    lattices = (
        [f"chain({n})" for n in range(1, 11)]
        + [f"boolean({k})" for k in range(5)]
        + [f"divisor({m})" for m in range(1, 61)]
    )
    assert set(lattices) <= set(seen)


def test_closed_forms_names_a_missing_principal_cut(monkeypatch, capsys):
    """A lattice's completion that lists a non-principal mask in place of a
    principal cut is a failure line and exit 1, not a ``KeyError``."""
    real = checks.macneille_completion

    def faulty(poset):
        completion = real(poset)
        if poset.labels != ("c0", "c1", "c2", "c3"):
            return completion
        masks = tuple(0b1010 if m == 0b111 else m for m in completion.cut_masks)
        return _trusted(type(completion), parent=poset, cut_masks=masks)

    monkeypatch.setattr(checks, "macneille_completion", faulty)
    assert cli.main(["check", "closedforms"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL closed-form completion sizes",
        "  counterexample: chain(4): embedding is not onto the cuts",
    ]


def test_equation_check_catches_a_class_map_that_is_not_an_oie():
    # the fiber (0, 2) split in two: two classes with one image, so the
    # quotient order pulled back onto them is not antisymmetric
    instance = random_equation(1)
    assert instance.classes == ((0, 2), (1,), (3,))
    split = _trusted(
        EquationInstance, t=instance.t, max_cuts=instance.max_cuts,
        classes=((0,), (1,), (2,), (3,)),
    )
    assert split.t_approx.assignment == (1, 2, 1, 0)
    assert "split: induced class map is not an OIE" in checks.check_equation("split", split)


def test_equation_check_names_a_wrong_image():
    """check theorem41 compares every image with the oracle's and names the
    first quotient cut whose image differs."""
    instance = random_equation(0)
    assert instance.quotient_completion.cut_labels()[2] == "{x0,x1,x2}"
    images = list(instance.images)
    images[2] ^= 1
    vars(instance)["images"] = tuple(images)
    assert checks.check_equation("equation(seed=0)", instance) == [
        "equation(seed=0): image of {x0,x1,x2} is not the oracle's"
    ]


def test_equation_check_names_a_wrong_image_table_entry():
    """A flipped bit in the class map's image tables (bit 0 of entry 5 of
    chunk 0, on the S_10 identity) is a failure line, not an internal error."""
    poset = poset_from_data(_standard(10))
    instance = EquationInstance(PosetMap(CarrierSet(poset.labels), poset, tuple(range(20))))
    phi = instance.t_approx
    tables = [list(chunk_table) for chunk_table in phi._image_up_tables]
    tables[0][5] ^= 1
    vars(phi)["_image_up_tables"] = tuple(map(tuple, tables))
    assert checks.check_equation("S_10", instance) == [
        "S_10: image of {a0,a2} is not the oracle's"
    ]


def test_bound_chain_check_names_a_closure_fault_instead_of_raising(monkeypatch, capsys):
    """An image that a faulty closure kernel rejects as a cut is a failure
    line and exit 1, not ``InvalidCut`` and exit 2."""
    def faulty(poset, mask):
        out = _closure_mask(poset, mask)
        return out ^ 1 if mask == 0b11 else out

    monkeypatch.setattr("ordercomplete.completion._closure_mask", faulty)
    assert cli.main(["check", "boundchain", "--count", "20"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "FAIL bound chain on 20 increasing maps"
    assert out[1] == (
        "  counterexample: boundchain(seed=0): an image was rejected as a cut: "
        "{t0,t1} is not closed under the upper-lower bound operators"
    )


def _drop_second_cut(monkeypatch):
    """Enumeration loses the second cut, an atom of the cut lattice, of every
    completion with more than three cuts, in the checks and in the solver."""
    def faulty(poset, **caps):
        completion = macneille_completion(poset, **caps)
        if completion.cut_count <= 3:
            return completion
        masks = completion.cut_masks[:1] + completion.cut_masks[2:]
        return _trusted(type(completion), parent=poset, cut_masks=masks)

    monkeypatch.setattr(checks, "macneille_completion", faulty)
    monkeypatch.setattr(solver, "macneille_completion", faulty)


@pytest.mark.parametrize("suite", ["theorem41", "theorem42", "boundchain"])
def test_a_dropped_cut_is_an_internal_error_not_a_traceback(suite, monkeypatch, capsys):
    """A principal cut missing from the list (the embedding) or a closure
    missing from it (the Hasse covers) is one ``error: internal:`` line and
    exit 1, not a ``KeyError``."""
    _drop_second_cut(monkeypatch)
    assert cli.main(["check", suite]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: internal:")


def test_macneille_names_a_dropped_cut(monkeypatch, capsys):
    _drop_second_cut(monkeypatch)
    assert cli.main(["check", "macneille", "--count", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "  counterexample: chain(4): enumerated cuts differ from the exhaustive scan" in out


def test_theorem41_names_a_dropped_quotient_cut(monkeypatch, tmp_path, capsys):
    """With the last cut dropped from every completion that has no maximum,
    seed 3's quotient lists one cut fewer than the oracle: ``check theorem41``
    names both counts, where a zip of the two lists would stop at the
    shorter and pass."""
    def faulty(poset, **caps):
        completion = macneille_completion(poset, **caps)
        if has_maximum(poset):
            return completion
        return _trusted(type(completion), parent=poset, cut_masks=completion.cut_masks[:-1])

    t = random_equation(3).t
    path = _write(tmp_path / "equation.json", equation_to_data(t.source, t.target, t))
    monkeypatch.setattr(solver, "macneille_completion", faulty)
    assert cli.main(["check", "theorem41", "--input", path]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL solvability criterion on 1 instances",
        "  counterexample: input: 4 quotient cuts, 5 by the oracle",
    ]


def _gridfn_identity():
    instance = generate(GeneratorSpec("gridfn", g=2, v=2))
    assert instance.codomain_completion.cut_masks == instance.images == (0b1, 0b11, 0b101, 0b1111)
    return instance


def test_global_check_names_an_image_that_is_no_cut():
    """Four distinct images, one of them ({01} for the principal cut of 00)
    no cut: the image counts as the whole completion but misses an embedded
    element, and it is no order isomorphism."""
    instance = _gridfn_identity()
    vars(instance)["images"] = (0b10,) + instance.images[1:]
    assert checks.check_global("g", instance) == [
        "g: embedded-coverage and whole-completion flags disagree",
        "g: surjective extension is not an order isomorphism",
    ]


def test_global_check_names_a_report_whose_image_size_is_off(monkeypatch):
    real = checks.global_character

    def faulty(instance):
        report = real(instance)
        return GlobalReport(**{**report._asdict(), "image_size": report.image_size - 1})

    monkeypatch.setattr(checks, "global_character", faulty)
    assert checks.check_global("g", _gridfn_identity()) == [
        "g: image claimed whole but sizes differ",
    ]


def test_bound_chain_check_names_a_broken_chain(monkeypatch, capsys):
    """An empty sup of the images, from a faulty join, lies below their inf."""
    monkeypatch.setattr(mapext, "_join", lambda poset, masks: 0)
    assert cli.main(["check", "boundchain", "--count", "3"]) == 1
    assert capsys.readouterr() == (
        "FAIL bound chain on 3 increasing maps\n"
        "  counterexample: boundchain(seed=2): chain broke: "
        "{t1} / {t1} / {} / {t0,t1,t2,t3}\n",
        "",
    )


def test_global_check_names_an_image_off_the_cuts_that_keeps_inclusion(monkeypatch, tmp_path,
                                                                       capsys):
    """Four distinct images that keep inclusion, the top's image {00,01,10}
    no cut: ``global_character`` builds no inverse off the cuts, so
    check theorem42 prints both failure lines and exits 1, no ``KeyError``."""
    def top_off_the_cuts(instance):
        vars(instance)["images"] = instance.images[:3] + (0b111,)
        return instance

    assert checks.check_global("g", top_off_the_cuts(_gridfn_identity())) == [
        "g: embedded-coverage and whole-completion flags disagree",
        "g: surjective extension is not an order isomorphism",
    ]
    real = checks.global_character
    monkeypatch.setattr(checks, "global_character",
                        lambda instance: real(top_off_the_cuts(instance)))
    path = tmp_path / "gridfn.json"
    gen = ["gen", "--family", "gridfn", "--g", "2", "--v", "2", "--output", str(path)]
    assert cli.main(gen) == 0
    assert cli.main(["check", "theorem42", "--input", str(path)]) == 1
    assert capsys.readouterr() == (
        "FAIL global characterization on 1 instances\n"
        "  counterexample: input: embedded-coverage and whole-completion flags disagree\n"
        "  counterexample: input: surjective extension is not an order isomorphism\n",
        "",
    )


# ------------------------------------------- one fault for each failure line


CHAIN3 = ("c0", "c1", "c2")  # the labels of chain(3)


def _cut_list_fault(labels, change):
    """``checks.macneille_completion`` lists ``change(cut masks)`` for the
    poset of these labels."""
    def install(monkeypatch):
        real = checks.macneille_completion

        def faulty(poset, **caps):
            completion = real(poset, **caps)
            if poset.labels != labels:
                return completion
            return _trusted(type(completion), parent=poset, cut_masks=change(completion.cut_masks))

        monkeypatch.setattr(checks, "macneille_completion", faulty)
    return install


def _embedding_fault(monkeypatch):
    """The kernel of ``verify_macneille`` gives the principal down-set of c0
    in chain(3) a wrong upper bound set."""
    real = checks._upper_mask

    def faulty(poset, mask):
        out = real(poset, mask)
        return out ^ 1 if poset.labels == CHAIN3 and mask == 0b1 else out

    monkeypatch.setattr("ordercomplete.completion._upper_mask", faulty)


def _criterion_fault(positions, value):
    """``checks._criterion`` returns ``value`` at these positions of its
    output on the target {y0,y1} of equation(seed=0), whose quotient cuts
    have the images {y0}, {y0,y1} and the full codomain."""
    def install(monkeypatch):
        real = checks._criterion

        def faulty(instance, f_mask):
            out = list(real(instance, f_mask))
            if f_mask == 0b11:
                for i in positions:
                    out[i] = value
            return tuple(out)

        monkeypatch.setattr(checks, "_criterion", faulty)
    return install


def _wrong_images(monkeypatch):
    """The extension flips bit 0 of every image it sends a quotient subset to."""
    real = solver.extension_mask
    monkeypatch.setattr(solver, "extension_mask", lambda phi, mask: real(phi, mask) ^ 1)


def _flipped_image_upper(monkeypatch):
    """Bit 0 of the upper bounds t(A)^u of the second quotient cut flips:
    {x0,x1} in equation(seed=0), whose image drops from {y0,y1} to {y0}."""
    real = solver.EquationInstance._image_uppers.func

    def faulty(instance):
        uppers = real(instance)
        return uppers[:1] + (uppers[1] ^ 1,) + uppers[2:]

    monkeypatch.setattr(solver.EquationInstance, "_image_uppers", property(faulty))


def _short_preimage(monkeypatch):
    """The pre-image of every target loses its lowest member."""
    real = solver._preimage_mask

    def faulty(phi, mask):
        pre = real(phi, mask)
        return pre & (pre - 1)

    monkeypatch.setattr(solver, "_preimage_mask", faulty)


def _wrong_quotient_meet(monkeypatch):
    """Inf of quotient cuts (labeled x0, ...; codomain elements y0, ...) flips bit 0."""
    real = solver._meet

    def faulty(poset, masks):
        out = real(poset, masks)
        return out ^ 1 if poset.labels[0] == "x0" else out

    monkeypatch.setattr(solver, "_meet", faulty)


def _one_oracle_image(monkeypatch):
    """The oracle's image table sends every quotient cut to the first one's image."""
    real = oracle._brute_image_table

    def faulty(instance):
        table = real(instance)
        return tuple((mask, table[0][1]) for mask, _ in table)

    monkeypatch.setattr(oracle, "_brute_image_table", faulty)


def _chain3_bound_calculus():
    completion = checks.macneille_completion(generate(GeneratorSpec("chain", n=3)))
    return checks.check_bound_calculus("chain(3)", completion)


def _chain3_completion():
    completion = macneille_completion(generate(GeneratorSpec("chain", n=3)))
    return checks.check_completion("chain(3)", completion)


def _equation0():
    return checks.check_equation("equation(seed=0)", random_equation(0))


def _theorem41_exit():
    return [f"exit {cli.main(['check', 'theorem41', '--count', '1'])}"]


@pytest.mark.parametrize("fault, run, expected", [
    pytest.param(_cut_list_fault(CHAIN3, lambda masks: masks + (0b10,)), _chain3_bound_calculus,
                 ["chain(3): closures of all subsets do not give all cuts"], id="extra-cut"),
    pytest.param(_embedding_fault, _chain3_completion,
                 ["chain(3): embedding check failed: "
                  "(\"principal sets of 'c0' are not mutual bounds\",)"], id="embedding"),
    pytest.param(_cut_list_fault(("a0", "a1", "a2"), lambda masks: masks[:-1]),
                 checks.check_closed_forms, ["antichain(3): expected 5 cuts, got 4"],
                 id="antichain-count"),
    pytest.param(_cut_list_fault(CHAIN3, lambda masks: masks[:-1]), checks.check_closed_forms,
                 ["chain(3): expected 3 cuts, got 2"], id="lattice-count"),
    pytest.param(_embedding_fault, checks.check_closed_forms,
                 ["chain(3): embedding is not an order isomorphism"], id="lattice-embedding"),
    # a sup of the images past the target is past the image of the solution too
    pytest.param(_criterion_fault([2], 0b11111), _equation0,
                 ["equation(seed=0): sup of images escapes {y0,y1}",
                  "equation(seed=0): inclusion chain broke at the lower end"], id="sup-escapes"),
    pytest.param(_criterion_fault([3], 0), _equation0,
                 ["equation(seed=0): {y0,y1} escapes inf of images",
                  "equation(seed=0): inclusion chain broke at the upper end"], id="inf-escaped"),
    pytest.param(_criterion_fault([4], []), _equation0,
                 ["equation(seed=0): inclusion chain broke at the lower end"], id="lower-end"),
    pytest.param(_criterion_fault([4, 5], [0, 1, 2]), _equation0,
                 ["equation(seed=0): inclusion chain broke in the middle"], id="middle"),
    pytest.param(_criterion_fault([5], []), _equation0,
                 ["equation(seed=0): inclusion chain broke at the upper end"], id="upper-end"),
    pytest.param(_wrong_images, _theorem41_exit,
                 ["exit 1", "error: internal: extension broke on a principal cut; this is a bug"],
                 id="principal-image"),
    pytest.param(_flipped_image_upper, _theorem41_exit,
                 ["exit 1", "FAIL solvability criterion on 1 instances",
                  "  counterexample: equation(seed=0): image of {x0,x1} is not the oracle's"],
                 id="image-upper"),
    pytest.param(_short_preimage, _theorem41_exit,
                 ["exit 1", "error: internal: sup of the lower family differs from inf of "
                  "the upper family; this is a bug"], id="preimage"),
    pytest.param(_wrong_quotient_meet, _theorem41_exit,
                 ["exit 1", "error: internal: sup of the lower family differs from inf of "
                  "the upper family; this is a bug"], id="lower-upper-family"),
    pytest.param(_one_oracle_image, _theorem41_exit,
                 ["exit 1", "error: internal: 3 distinct cuts map onto the same target"],
                 id="multiple-solutions"),
])
def test_every_failure_line_fires(fault, run, expected, monkeypatch, capsys):
    """Each failure line of the checks, and each broken invariant the solver
    and the oracle raise, fires on one injected fault: the failures the
    check returns, or the exit code and the one ``error: internal:`` line."""
    fault(monkeypatch)
    lines = run()
    out, err = capsys.readouterr()
    assert lines + (out + err).splitlines() == expected
