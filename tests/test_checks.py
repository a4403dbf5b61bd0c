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

from ordercomplete import checks
from ordercomplete.completion import _trusted, macneille_completion
from ordercomplete.generators import GeneratorSpec, generate, random_equation
from ordercomplete.jsonio import poset_from_data
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


@pytest.mark.parametrize("which", ["sup", "inf"])
def test_bound_scan_catches_a_wrong_bound(which, monkeypatch):
    """The oracle scan in check macneille is the one check of family sups
    and infs: a fast bound wrong on a single family must fail it."""
    completion = macneille_completion(generate(GeneratorSpec("divisor", m=12)))
    four, six = (completion.cuts[completion.embedding[completion.parent.index(x)]] for x in "46")
    indices = (completion.index_of(four), completion.index_of(six))
    real = getattr(checks, f"{which}_cuts")

    def faulty(completion, family):
        # the sup of <4] and <6] is <12], their inf <2]
        return four if family == [four, six] else real(completion, family)

    monkeypatch.setattr(checks, f"{which}_cuts", faulty)
    assert checks.check_completion("divisor(12)", completion) == [
        f"divisor(12): {which} disagrees with the bound scan on {indices}"
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
