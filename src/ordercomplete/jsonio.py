"""Stable JSON formats shared by the CLI and its fixtures.

Data files (posets, maps, equations, targets) are plain schemas; report
payloads additionally carry ``schema_version``.  Output is canonical:
element order follows the input label order, cuts follow the completion
order, and no payload contains timestamps, so equal inputs produce
byte-equal outputs.

Report payloads hold subsets and completions, which ``dumps`` writes from
their masks; its text is ``json.dumps(data, indent=2, ensure_ascii=False)``'s.
"""

from __future__ import annotations

from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .completion import CompletedPoset
from .errors import SchemaError
from .poset import (
    CarrierSet,
    DEFAULT_MAX_ARITY,
    Parent,
    Poset,
    Subset,
    _mask_labels,
    _mask_members,
    build_poset,
)

if TYPE_CHECKING:  # the map formats import mapext when they run
    from .mapext import PosetMap
    from .solver import SolveReport
SCHEMA_VERSION = 1


def dumps(data: Any) -> str:
    """Report text: a ``Subset`` is its member names, a ``CompletedPoset`` its cuts."""
    return _text(data, "\n") + "\n"


def _text(value: Any, newline: str) -> str:
    """JSON text of ``value``, whose lines after the first start ``newline``."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [encode_basestring(k) + ": " + _text(v, inner) for k, v in value.items()]
        return _block("{", items, newline, "}")
    if isinstance(value, (list, tuple)):
        return _block("[", [_text(item, inner) for item in value], newline, "]")
    if isinstance(value, Subset):
        return _block("[", _mask_labels(value.parent._json_label_tables, value.mask), newline, "]")
    if isinstance(value, CompletedPoset):
        tables = value.parent._json_label_tables
        cuts = [_block("[", _mask_labels(tables, m), inner, "]") for m in value.cut_masks]
        return _block("[", cuts, newline, "]")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _block(opening: str, items: Sequence[str], newline: str, closing: str) -> str:
    """An array or object of item texts, one item per line."""
    if not items:
        return opening + closing
    inner = newline + "  "
    return opening + inner + ("," + inner).join(items) + newline + closing


def _expect_list_of_strings(value: Any, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(f"{where} must be an array of strings")
    try:
        "".join(value).encode("utf-8")  # reports print these names back
    except UnicodeEncodeError:
        raise SchemaError(f"{where} must not contain lone surrogates") from None
    return value


def _expect_dict(value: Any, where: str, *keys: str) -> dict:
    """``value`` as an object holding every one of ``keys``."""
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be an object")
    for key in keys:
        if key not in value:
            raise SchemaError(f"{where} is missing {key!r}")
    return value


def cover_relation(poset: Poset) -> list[tuple[str, str]]:
    """Cover pairs of a poset in element order (its Hasse diagram)."""
    pairs = []
    for i in range(poset.arity):
        strict_up = poset.up_masks[i] & ~(1 << i)
        reachable = 0
        for j in _mask_members(strict_up):
            reachable |= poset.up_masks[j] & ~(1 << j)
        for j in _mask_members(strict_up & ~reachable):
            pairs.append((poset.labels[i], poset.labels[j]))
    return pairs


def raw_poset_to_data(
    labels: Sequence[str], pairs: Iterable[tuple[str, str]], kind: str
) -> dict:
    """The poset file format for unvalidated (labels, pairs, kind) data."""
    return {
        "elements": list(labels),
        "relation": [list(p) for p in pairs],
        "relation_kind": kind,
    }


def poset_to_data(poset: Poset) -> dict:
    return raw_poset_to_data(poset.labels, cover_relation(poset), "covers")


def poset_from_data(data: Any, max_arity: int = DEFAULT_MAX_ARITY) -> Poset:
    data = _expect_dict(data, "poset", "elements", "relation", "relation_kind")
    elements = _expect_list_of_strings(data["elements"], "elements")
    kind = data["relation_kind"]
    if kind not in ("covers", "full"):
        raise SchemaError("relation_kind must be 'covers' or 'full'")
    relation = data["relation"]
    if not isinstance(relation, list):
        raise SchemaError("relation must be an array of pairs")
    pairs = []
    for entry in relation:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, str) for x in entry)
        ):
            raise SchemaError("relation entries must be [from, to] name pairs")
        pairs.append((entry[0], entry[1]))
    return build_poset(elements, pairs, kind, max_arity=max_arity)


def carrier_from_data(data: Any) -> CarrierSet:
    data = _expect_dict(data, "carrier set", "elements")
    return CarrierSet(tuple(_expect_list_of_strings(data["elements"], "elements")))


def source_from_data(data: Any, max_arity: int = DEFAULT_MAX_ARITY) -> Parent:
    data = _expect_dict(data, "map source")
    if "relation" in data or "relation_kind" in data:
        return poset_from_data(data, max_arity)
    return carrier_from_data(data)


def _mapping_from_data(data: Any) -> dict[str, str]:
    data = _expect_dict(data, "map assignment")
    for key, value in data.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise SchemaError("map assignment must send names to names")
    return data


def map_from_data(data: Any, max_arity: int = DEFAULT_MAX_ARITY) -> PosetMap:
    from .mapext import PosetMap
    data = _expect_dict(data, "map", "source", "target", "map")
    source = source_from_data(data["source"], max_arity)
    target = poset_from_data(data["target"], max_arity)
    return PosetMap.from_names(source, target, _mapping_from_data(data["map"]))


def raw_equation_to_data(domain: Sequence[str], codomain: tuple, mapping: dict) -> dict:
    """The equation file format for unvalidated data, the codomain as
    (labels, pairs, kind) like ``raw_poset_to_data`` takes it."""
    return {
        "domain": {"elements": list(domain)},
        "codomain": raw_poset_to_data(*codomain),
        "map": mapping,
    }


def equation_to_data(domain: CarrierSet, codomain: Poset, t: PosetMap) -> dict:
    return raw_equation_to_data(
        domain.labels,
        (codomain.labels, cover_relation(codomain), "covers"),
        {name: codomain.labels[t.assignment[i]] for i, name in enumerate(domain.labels)},
    )


def equation_from_data(
    data: Any, max_arity: int = DEFAULT_MAX_ARITY
) -> tuple[CarrierSet, Poset, PosetMap]:
    from .mapext import PosetMap
    data = _expect_dict(data, "equation", "domain", "codomain", "map")
    domain = carrier_from_data(data["domain"])
    codomain = poset_from_data(data["codomain"], max_arity)
    t = PosetMap.from_names(domain, codomain, _mapping_from_data(data["map"]))
    return domain, codomain, t


def target_from_data(data: Any, codomain: Poset) -> Subset:
    """A right hand side: either an explicit cut or a principal one."""
    data = _expect_dict(data, "target")
    if "cut" in data:
        names = _expect_list_of_strings(data["cut"], "cut")
        return codomain.subset(names)
    if "principal" in data:
        name = data["principal"]
        if not isinstance(name, str):
            raise SchemaError("principal must be an element name")
        return Subset(codomain, codomain.down_masks[codomain.index(name)])
    raise SchemaError("target must contain 'cut' or 'principal'")


def completed_to_data(completion: CompletedPoset) -> dict:
    parent = completion.parent
    return {
        "parent": poset_to_data(parent),
        "cuts": completion,
        "embedding": dict(zip(parent.labels, completion.embedding)),
    }


def solve_report_to_data(report: SolveReport) -> dict:
    # the report's fields, in order, are the payload's keys; each flags record is an object
    data = {"schema_version": SCHEMA_VERSION, **report._asdict()}
    for flags in ("empty_family_flags", "assumption_flags"):
        data[flags] = data[flags]._asdict()
    return data
