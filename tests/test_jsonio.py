import pytest

from ordercomplete import jsonio
from ordercomplete.completion import macneille_completion
from ordercomplete.errors import SchemaError
from ordercomplete.generators import GeneratorSpec, generate
from ordercomplete.mapext import PosetMap
from ordercomplete.poset import CarrierSet, build_poset
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
        data = jsonio.completed_to_data(completion)
        assert data["cuts"] == [["a"], ["a", "b"], ["a", "b", "c"]]
        assert data["embedding"] == {"a": 0, "b": 1, "c": 2}

    def test_solve_report_payload(self):
        codomain = build_poset(["p", "q"], [])
        domain = CarrierSet(("u",))
        t = PosetMap.from_names(domain, codomain, {"u": "p"})
        instance = build_equation(domain, codomain, t)
        report = solve(instance, codomain.subset([]))
        data = jsonio.solve_report_to_data(report)
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
