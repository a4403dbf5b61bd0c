"""The poset check suites: what they scan, how much, and that the family
scan catches a wrong bound; and that the equation check catches a class
map that is not an order isomorphic embedding.

The coverage digest pins every family ``_iter_index_families`` yields at
the call sites of the suites, and the element masks ``_sampled_masks``
picks on the check corpus and on the golden ``check --input`` posets.  A
change to the sampling that moves any of them fails here, so a faster
scan cannot quietly check less on the gate's inputs.
"""

import hashlib

import pytest

from ordercomplete import checks, cli
from ordercomplete.completion import _closure_mask, _trusted, macneille_completion
from ordercomplete.generators import GeneratorSpec, generate, random_equation
from ordercomplete.jsonio import poset_from_data
from ordercomplete.mapext import PosetMap
from ordercomplete.poset import CarrierSet
from ordercomplete.solver import EquationInstance

from test_golden import _standard, check_inputs

COVERAGE = "6a5c385185538fe244b52f0a4a8f25e93f7208d2846fa3ea91ef455f74d437b8"


def _coverage_digest():
    digest = hashlib.sha256()

    def add(*parts):
        digest.update(repr(parts).encode("ascii") + b"\n")

    for seed, budget in ((0, checks.BOUND_SCAN_SAMPLE), (1, checks.FAMILY_SAMPLE)):
        for count in range(65):
            add(seed, budget, count, list(checks._iter_index_families(count, seed, budget)))
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
            families = list(checks._iter_index_families(count, 0, budget))
            assert checks._family_count(count, budget) == len(families)


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
