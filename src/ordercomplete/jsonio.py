"""Stable JSON formats shared by the CLI and its fixtures.

Data files (posets, maps, equations, targets) are plain schemas; report
payloads additionally carry ``schema_version``.  Output is canonical:
element order follows the input label order, cuts follow the completion
order, and no payload contains timestamps, so equal inputs produce
byte-equal outputs.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .completion import CompletedPoset
from .errors import SchemaError
from .poset import (
    CarrierSet,
    DEFAULT_MAX_ARITY,
    Parent,
    Poset,
    Subset,
    _mask_members,
    build_poset,
)

if TYPE_CHECKING:  # the map formats import mapext when they run
    from .mapext import PosetMap
    from .solver import SolveReport
SCHEMA_VERSION = 1


def dumps(data: Any) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


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


def subset_to_data(subset: Subset) -> list[str]:
    return list(subset.names())


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
        "cuts": [
            [parent.labels[i] for i in _mask_members(mask)]
            for mask in completion.cut_masks
        ],
        "embedding": {
            parent.labels[i]: completion.embedding[i] for i in range(parent.arity)
        },
    }


def solve_report_to_data(report: SolveReport) -> dict:
    # the field order of each flags record is its JSON key order
    return {
        "schema_version": SCHEMA_VERSION,
        "target": subset_to_data(report.target),
        "solvable": report.solvable,
        "solution": None if report.solution is None else subset_to_data(report.solution),
        "sup_of_images": subset_to_data(report.sup_of_images),
        "inf_of_images": subset_to_data(report.inf_of_images),
        "lower_family": [subset_to_data(c) for c in report.lower_family],
        "upper_family": [subset_to_data(c) for c in report.upper_family],
        "empty_family_flags": report.empty_family_flags._asdict(),
        "assumption_flags": report.assumption_flags._asdict(),
    }
