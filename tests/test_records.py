"""Value semantics of the package's record types.

Every value type derives from ``poset._Record``: its fields are frozen,
it compares and hashes by its fields and its class, and the trusted
builder gives the same value as the validating constructor.
"""

import pytest

from ordercomplete import completion, mapext, solver
from ordercomplete.completion import Cut, _trusted, macneille_completion, verify_macneille
from ordercomplete.generators import GeneratorSpec
from ordercomplete.mapext import check_bound_chain
from ordercomplete.poset import CarrierSet, Subset, _Record, build_poset
from ordercomplete.solver import build_equation, global_character, solve


def samples():
    """One value of each record class, built through the public API."""
    chain = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    cp = macneille_completion(chain)
    domain = CarrierSet(("u", "v", "w"))
    t = mapext.PosetMap.from_names(domain, chain, {"u": "a", "v": "b", "w": "b"})
    instance = build_equation(domain, chain, t)
    report = solve(instance, Cut(chain, 0b011))
    values = [
        domain,
        chain,
        Subset(chain, 0b101),
        Cut(chain, 0b001),
        cp,
        verify_macneille(cp),
        t,
        check_bound_chain(cp, chain, cp.cut_masks, list(cp.cuts)[:2]),
        instance.assumption_flags,
        instance,
        report.empty_family_flags,
        report,
        global_character(instance),
        GeneratorSpec("chain", n=3),
    ]
    return {type(value).__name__: value for value in values}


SAMPLES = samples()

# every record's stored fields, pinned so that a field added back, such as
# a value that could be read off the others, shows up in review
FIELDS = {
    "AssumptionFlags": (
        "quotient_has_minimum", "quotient_has_maximum", "codomain_has_minimum",
        "codomain_has_maximum", "empty_set_in_quotient_completion",
        "empty_set_in_codomain_completion",
    ),
    "BoundChainReport": ("mu_of_inf", "inf_of_images", "sup_of_images", "mu_of_sup"),
    "CarrierSet": ("labels",),
    "CompletedPoset": ("parent", "cut_masks"),
    "Cut": ("parent", "mask"),
    "EmptyFamilyFlags": ("lower", "upper"),
    "EquationInstance": ("t", "max_cuts"),
    "GeneratorSpec": ("family", "n", "k", "m", "density", "seed", "g", "v", "stencil"),
    "GlobalReport": (
        "covers_embedded_codomain", "image_is_whole_completion", "order_isomorphism",
        "image_size", "completion_sizes", "assumption_flags",
    ),
    "MacNeilleReport": ("embedding_ok", "inf_side_empty", "failures"),
    "Poset": ("labels", "up_masks"),
    "PosetMap": ("source", "target", "assignment"),
    "SolveReport": (
        "target", "solvable", "solution", "sup_of_images", "inf_of_images",
        "lower_family", "upper_family", "empty_family_flags", "assumption_flags",
    ),
    "Subset": ("parent", "mask"),
}


def record_classes():
    found, todo = set(), [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return found


def test_every_record_class_is_sampled():
    assert record_classes() == {type(value) for value in SAMPLES.values()}
    assert len(SAMPLES) == 14


def test_every_record_stores_its_pinned_fields():
    assert {name: type(value)._fields for name, value in SAMPLES.items()} == FIELDS


@pytest.fixture(params=sorted(SAMPLES))
def value(request):
    return SAMPLES[request.param]


def test_fields_are_frozen(value):
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1


def test_equal_fields_give_equal_values_and_hashes(value):
    cls = type(value)
    fields = value._asdict()
    assert list(fields) == list(cls._fields)
    rebuilt = cls(**fields)
    assert rebuilt is not value
    assert rebuilt == value and not rebuilt != value
    assert hash(rebuilt) == hash(value)
    assert repr(rebuilt) == repr(value)


def test_positional_and_keyword_construction_agree(value):
    cls = type(value)
    fields = value._asdict()
    assert cls(*fields.values()) == cls(**fields)
    name = cls._fields[0]
    assert cls(fields[name], **{k: v for k, v in fields.items() if k != name}) == value


def test_defaults_apply(value):
    cls = type(value)
    fields = {k: v for k, v in value._asdict().items() if k not in cls._defaults}
    rebuilt = cls(**fields)
    for name, default in cls._defaults.items():
        assert getattr(rebuilt, name) == default


def test_missing_unknown_or_repeated_field_raises_type_error(value):
    cls = type(value)
    fields = value._asdict()
    required = [name for name in cls._fields if name not in cls._defaults]
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in fields.items() if k != required[-1]})
    with pytest.raises(TypeError):
        cls(**fields, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(fields[cls._fields[0]], **fields)


def test_trusted_value_equals_validated_one(value):
    cls = type(value)
    trusted = _trusted(cls, **value._asdict())
    assert trusted == cls(**value._asdict())
    assert hash(trusted) == hash(value)


def test_values_of_different_classes_are_unequal():
    chain = SAMPLES["Poset"]
    assert Cut(chain, 0b001) != Subset(chain, 0b001)
    assert Subset(chain, 0b001) != Cut(chain, 0b001)
    assert CarrierSet(chain.labels) != chain
    assert len({Cut(chain, 0b001), Subset(chain, 0b001)}) == 2


def test_known_defaults():
    assert solver.EquationInstance._defaults == {"max_cuts": completion.DEFAULT_MAX_CUTS}
    assert GeneratorSpec("chain") == GeneratorSpec(family="chain", n=None, stencil=None)
    assert set(GeneratorSpec._defaults) == set(GeneratorSpec._fields) - {"family"}
