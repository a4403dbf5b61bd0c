"""The poset check suites: what they scan, how much, and that the family
scan catches a wrong bound.

The coverage digest pins every family ``_iter_index_families`` yields at
the call sites of the suites, and the element masks ``_sampled_masks``
picks on the check corpus and on the golden ``check --input`` posets.  A
change to the sampling that moves any of them fails here, so a faster
scan cannot quietly check less on the gate's inputs.
"""

import hashlib

import pytest

from ordercomplete import checks
from ordercomplete.completion import macneille_completion
from ordercomplete.generators import GeneratorSpec, generate
from ordercomplete.jsonio import poset_from_data

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
