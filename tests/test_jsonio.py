import json
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercomplete import jsonio
from ordercomplete.completion import CompletedPoset, macneille_completion
from ordercomplete.errors import SchemaError
from ordercomplete.generators import GeneratorSpec, generate
from ordercomplete.mapext import PosetMap
from ordercomplete.poset import CarrierSet, Subset, build_poset
from ordercomplete.solver import build_equation, solve


def chain3():
    return build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])


class TestPosetFormat:
    def test_round_trip(self):
        poset = generate(GeneratorSpec("random", n=6, density=0.5, seed=4))
        again = jsonio.poset_from_data(jsonio.poset_to_data(poset))
        assert again == poset

    def test_cover_relation_is_hasse(self):
        data = jsonio.poset_to_data(chain3())
        assert data["relation"] == [["a", "b"], ["b", "c"]]

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            jsonio.poset_from_data({"elements": ["a"]})

    def test_bad_relation_kind(self):
        with pytest.raises(SchemaError):
            jsonio.poset_from_data(
                {"elements": ["a"], "relation": [], "relation_kind": "loose"}
            )

    def test_bad_relation_entry(self):
        with pytest.raises(SchemaError):
            jsonio.poset_from_data(
                {"elements": ["a"], "relation": [["a"]], "relation_kind": "covers"}
            )

    @pytest.mark.parametrize("entry", [
        "ab", ("a", "b"), None, ["a"], ["a", "b", "a"], ["a", 1], [1, "a"], ["a", ["b"]],
    ])
    def test_every_relation_entry_is_a_list_of_two_names(self, entry):
        data = {"elements": ["a", "b"], "relation": [["a", "b"], entry], "relation_kind": "covers"}
        with pytest.raises(SchemaError, match=r"^relation entries must be \[from, to\] name pairs$"):
            jsonio.poset_from_data(data)

    def test_not_an_object(self):
        with pytest.raises(SchemaError):
            jsonio.poset_from_data([1, 2])


class TestMapAndEquation:
    def test_map_round_trip(self):
        poset = chain3()
        carrier = CarrierSet(("u", "v"))
        phi = PosetMap.from_names(carrier, poset, {"u": "a", "v": "c"})
        data = {
            "source": {"elements": ["u", "v"]},
            "target": jsonio.poset_to_data(poset),
            "map": {"u": "a", "v": "c"},
        }
        assert jsonio.map_from_data(data) == phi

    def test_map_with_poset_source(self):
        poset = chain3()
        data = {
            "source": jsonio.poset_to_data(poset),
            "target": jsonio.poset_to_data(poset),
            "map": {x: x for x in poset.labels},
        }
        assert jsonio.map_from_data(data).source == poset

    def test_equation_round_trip(self):
        codomain = chain3()
        domain = CarrierSet(("u", "v"))
        t = PosetMap.from_names(domain, codomain, {"u": "a", "v": "b"})
        data = jsonio.equation_to_data(domain, codomain, t)
        d2, c2, t2 = jsonio.equation_from_data(data)
        assert (d2, c2, t2) == (domain, codomain, t)

    def test_equation_missing_map(self):
        with pytest.raises(SchemaError):
            jsonio.equation_from_data({"domain": {"elements": ["u"]}})


class TestTarget:
    def test_cut_form(self):
        poset = chain3()
        subset = jsonio.target_from_data({"cut": ["a", "b"]}, poset)
        assert subset.names() == ("a", "b")

    def test_principal_form(self):
        poset = chain3()
        subset = jsonio.target_from_data({"principal": "b"}, poset)
        assert subset.names() == ("a", "b")

    def test_neither_form(self):
        with pytest.raises(SchemaError):
            jsonio.target_from_data({"sup": ["a"]}, chain3())


class TestReports:
    def test_completed_poset_payload(self):
        completion = macneille_completion(chain3())
        # the payload holds the completion itself; dumps writes its cuts
        data = json.loads(jsonio.dumps(jsonio.completed_to_data(completion)))
        assert data["cuts"] == [["a"], ["a", "b"], ["a", "b", "c"]]
        assert data["embedding"] == {"a": 0, "b": 1, "c": 2}

    def test_solve_report_payload(self):
        codomain = build_poset(["p", "q"], [])
        domain = CarrierSet(("u",))
        t = PosetMap.from_names(domain, codomain, {"u": "p"})
        instance = build_equation(domain, codomain, t)
        report = solve(instance, codomain.subset([]))
        data = json.loads(jsonio.dumps(jsonio.solve_report_to_data(report)))
        assert data["schema_version"] == 1
        assert data["solvable"] is False
        assert data["solution"] is None
        assert data["empty_family_flags"] == {"lower": True, "upper": False}
        assert data["assumption_flags"]["quotient_has_minimum"] is True

    def test_dumps_is_stable(self):
        completion = macneille_completion(chain3())
        a = jsonio.dumps(jsonio.completed_to_data(completion))
        b = jsonio.dumps(jsonio.completed_to_data(macneille_completion(chain3())))
        assert a == b
        assert a.endswith("\n")


def reference(data):
    """The report text of ``data`` by the standard library's encoder."""
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def plain(value):
    """A payload with its subsets and completions spelled out as name lists,
    by ``Subset.names``, so that ``json.dumps`` can encode it."""
    if isinstance(value, CompletedPoset):
        return [list(cut.names()) for cut in value.cuts]
    if isinstance(value, Subset):
        return list(value.names())
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


payload_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)

# labels built from characters that JSON escapes, or passes through as they are
labels = st.text(alphabet='ab"\\\x00\x1f\x7f\u2028\u2029é∀日', max_size=3)


@st.composite
def posets(draw, min_size=0):
    """A poset on up to 10 such labels: more than one byte of the tables."""
    names = draw(st.lists(labels, min_size=min_size, max_size=10, unique=True))
    pairs = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12))
    return build_poset(names, [(names[i], names[j]) for i, j in pairs if i < j < len(names)])


@st.composite
def solve_reports(draw):
    codomain = draw(posets(min_size=1))
    domain = CarrierSet(tuple(draw(st.lists(labels, min_size=1, max_size=10, unique=True))))
    images = st.sampled_from(codomain.labels)
    t = PosetMap.from_names(domain, codomain, {name: draw(images) for name in domain.labels})
    instance = build_equation(domain, codomain, t)
    masks = instance.codomain_completion.cut_masks
    return solve(instance, Subset(codomain, draw(st.sampled_from(masks))))


class Level(IntEnum):
    LOW = 0
    HIGH = 7


class Name(str):
    pass


class Names(list):
    pass


class TestWriter:
    """``dumps`` writes what ``json.dumps(indent=2, ensure_ascii=False)`` would."""

    @given(payload_values)
    def test_any_payload_value(self, value):
        assert jsonio.dumps(value) == reference(value)

    @settings(max_examples=60, deadline=None)
    @given(posets())
    def test_complete_payload(self, poset):
        completion = macneille_completion(poset)
        data = {"schema_version": 1, "completion": jsonio.completed_to_data(completion)}
        assert jsonio.dumps(data) == reference(plain(data))

    @settings(max_examples=60, deadline=None)
    @given(solve_reports())
    def test_solve_payload(self, report):
        data = jsonio.solve_report_to_data(report)
        assert jsonio.dumps(data) == reference(plain(data))

    def test_empty_cut_empty_family_and_no_solution(self):
        codomain = build_poset(['"p\u2028', "q\\\x01"], [])
        domain = CarrierSet(("ü",))
        t = PosetMap.from_names(domain, codomain, {"ü": codomain.labels[0]})
        report = solve(build_equation(domain, codomain, t), codomain.subset([]))
        data = jsonio.solve_report_to_data(report)
        text = jsonio.dumps(data)
        assert text == reference(plain(data))
        assert json.loads(text)["target"] == [] and json.loads(text)["lower_family"] == []
        assert json.loads(text)["solution"] is None
        completion = jsonio.completed_to_data(macneille_completion(codomain))
        assert json.loads(jsonio.dumps(completion))["cuts"][0] == []
        assert jsonio.dumps(completion) == reference(plain(completion))

    def test_other_types_are_rejected(self):
        with pytest.raises(TypeError):
            jsonio.dumps({"density": 0.5})

    @pytest.mark.parametrize("value", [
        OrderedDict([("b", 1), ("a", [True, None])]),
        Level.HIGH,
        Name('"x\u2028é'),
        Names(["a", 1, Names()]),
        {"nested": [OrderedDict(level=Level.LOW), (Name("n"),), Names([Level.HIGH])]},
    ], ids=["OrderedDict", "IntEnum", "str-subclass", "list-subclass", "nested"])
    def test_subclasses_are_written_as_their_base(self, value):
        assert jsonio.dumps(value) == reference(value)

    @pytest.mark.parametrize("value, name", [(0.5, "float"), ({1}, "set"), (b"x", "bytes")])
    def test_other_types_raise_the_standard_message(self, value, name):
        with pytest.raises(TypeError) as raised:
            jsonio.dumps({"key": [value]})
        assert str(raised.value) == f"Object of type {name} is not JSON serializable"
