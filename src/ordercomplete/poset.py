"""Finite posets, subsets and the upper/lower-bound operator calculus.

Elements are identified by their position in the label list; subsets are
bitmasks over those positions.  The two derived operators

    A^u  =  intersection of the principal up-sets of the members of A
    A^l  =  intersection of the principal down-sets of the members of A

use the convention that an intersection over an empty family is the full
carrier, so ``A = {}`` gives ``A^u = A^l = X``.

They are computed by one table-driven kernel (``_upper_mask``,
``_lower_mask``, ``_closure_mask``).  Each poset caches, per chunk of 8
elements, the intersections of the rows picked by each byte value,
so A^u and A^l cost one lookup per chunk: at most three at the default
arity cap of 20.  The same kernel holds the two lattice operations on
cuts: ``_join`` (the closure of the union) and ``_meet`` (the plain
intersection).  This module alone lays out the tables: ``_doubled`` is
the one doubling step that builds them (and the member lists of a whole
cube in ``checks``), ``_table_and`` the one lookup that ANDs one entry
per chunk (also for the image tables of ``mapext``), ``_table_and_each``
the same lookup for a whole list of masks, one list pass per chunk, and
``_mask_labels`` the one reader of a mask's rows off tables of tuples:
labels, or the principal down-sets in ``checks``.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import add, and_, attrgetter, or_
from typing import Iterable, Sequence, Union

from .errors import (
    CycleDetected,
    DuplicateLabel,
    InvalidInput,
    NotAPartialOrder,
    ParentMismatch,
    ResourceCap,
    UnknownElement,
)

DEFAULT_MAX_ARITY = 20
_setattr = object.__setattr__


def _doubled(rows: Sequence, start, combine) -> list:
    """``out[b]`` is ``start`` combined, in order, with the rows i for the
    set bits i of b.  Each row doubles the list: the new upper half is the
    old list combined with that row."""
    out = [start]
    for row in rows:
        out += [combine(entry, row) for entry in out]
    return out


def _row_tables(rows: Sequence, start, combine) -> tuple[tuple, ...]:
    """Per-byte tables: ``tables[c]`` is ``_doubled`` on the rows ``8c`` to ``8c + 7``."""
    return tuple(tuple(_doubled(rows[first : first + 8], start, combine))
                 for first in range(0, len(rows), 8))


def _table_and(tables: tuple[tuple[int, ...], ...], out: int, mask: int) -> int:
    """``out`` ANDed with one entry per chunk of 8 bits of the mask."""
    for table in tables:
        out &= table[mask & 255]
        mask >>= 8
    return out


def _table_and_each(tables: tuple[tuple[int, ...], ...], out: int,
                    masks: Sequence[int]) -> list[int]:
    """``_table_and`` of every mask, one list pass per chunk of 8 bits."""
    outs = [out] * len(masks)
    for shift, table in zip(range(0, 8 * len(tables), 8), tables):
        outs = [o & table[m >> shift & 255] for o, m in zip(outs, masks)]
    return outs


def _mask_labels(tables: tuple[tuple[tuple, ...], ...], mask: int) -> tuple:
    """The labels (rows) of a mask's members, one lookup per chunk of 8 elements."""
    out = ()
    for table in tables:
        out += table[mask & 255]
        mask >>= 8
    return out


def _mask_members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _trusted(cls, **fields):
    """A record built without ``__post_init__``, valid by its builder's algorithm."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


class _Record:
    """Base of the package's immutable value types.

    The fields are the annotated names of the class and its bases, base
    fields first; a class attribute of a field's name is its default.
    A record equals only records of its own class with equal fields and
    hashes as they do; ``cached_property`` and ``_trusted`` write ``__dict__``.
    """

    def __init_subclass__(cls) -> None:
        annotated = (vars(klass).get("__annotations__", ()) for klass in reversed(cls.__mro__))
        names = dict.fromkeys(name for annotations in annotated for name in annotations)
        cls._fields = tuple(names)
        cls._defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
        get = attrgetter(*names)  # one name gives a bare value, so wrap it in a tuple
        cls._key = staticmethod(get if len(names) > 1 else lambda value: (get(value),))

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        given = dict(zip(cls._fields, args))
        values = {**cls._defaults, **given, **kwargs}
        if len(given) < len(args) or given.keys() & kwargs or values.keys() != set(cls._fields):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(cls._fields)}")
        return [values[name] for name in cls._fields]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._key(self)))


class CarrierSet(_Record):
    """A bare, unordered carrier: distinct labels and nothing else."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.labels, str):
            raise InvalidInput("carrier labels must be a sequence of labels, not one string")
        _setattr(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabel("carrier labels must be distinct")

    @property
    def arity(self) -> int:
        return len(self.labels)

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"unknown element {label!r}") from None

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.labels)}

    @cached_property
    def _label_tables(self) -> tuple[tuple[tuple[str, ...], ...], ...]:
        """``_row_tables`` of the labels: ``[c][b]`` names the set bits of b."""
        return _row_tables([(label,) for label in self.labels], (), add)

    @cached_property
    def _json_label_tables(self) -> tuple[tuple[tuple[str, ...], ...], ...]:
        """``_label_tables`` of the labels as JSON string literals."""
        from json.encoder import encode_basestring
        return _row_tables([(encode_basestring(label),) for label in self.labels], (), add)


class Poset(CarrierSet):
    """A finite partial order: a carrier and its order relation.

    ``up_masks[i]`` is the bitmask of ``{j : i <= j}`` (the principal
    up-set of element i, itself included).  The three poset axioms are
    re-validated on construction.
    """

    up_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        CarrierSet.__post_init__(self)
        _setattr(self, "up_masks", tuple(self.up_masks))
        n = len(self.labels)
        if len(self.up_masks) != n:
            raise NotAPartialOrder("relation size does not match carrier")
        full = (1 << n) - 1
        for i, row in enumerate(self.up_masks):
            if row & ~full:
                raise NotAPartialOrder("relation references unknown elements")
            if not (row >> i) & 1:
                raise NotAPartialOrder(f"relation is not reflexive at {self.labels[i]!r}")
        for i in range(n):
            for j in _mask_members(self.up_masks[i]):
                if i != j and (self.up_masks[j] >> i) & 1:
                    raise NotAPartialOrder(
                        f"relation is not antisymmetric on "
                        f"{self.labels[i]!r}, {self.labels[j]!r}"
                    )
                if self.up_masks[j] & ~self.up_masks[i]:
                    raise NotAPartialOrder(
                        f"relation is not transitive through {self.labels[j]!r}"
                    )

    @cached_property
    def _up_tables(self) -> tuple[tuple[int, ...], ...]:
        return _row_tables(self.up_masks, self.full_mask, and_)

    @cached_property
    def _down_tables(self) -> tuple[tuple[int, ...], ...]:
        return _row_tables(self.down_masks, self.full_mask, and_)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        n = len(self.labels)
        cols = [0] * n
        for i in range(n):
            row = self.up_masks[i]
            for j in _mask_members(row):
                cols[j] |= 1 << i
        return tuple(cols)

    def subset(self, members: Iterable[str]) -> "Subset":
        mask = 0
        for name in members:
            mask |= 1 << self.index(name)
        return Subset(self, mask)


Parent = Union[Poset, CarrierSet]


class Subset(_Record):
    """A subset of one specific carrier, stored as a bitmask.

    Mixing subsets of different parents raises ParentMismatch in every
    consuming operation.
    """

    parent: Parent
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask & ~self.parent.full_mask:
            raise UnknownElement("subset mask references elements outside its parent")

    def names(self) -> tuple[str, ...]:
        return _mask_labels(self.parent._label_tables, self.mask)


def _require_same_parent(parent: Parent, subset: Subset) -> None:
    if subset.parent is not parent and subset.parent != parent:
        raise ParentMismatch("subset belongs to a different carrier")


def _check_arity(arity: int, max_arity: int) -> None:
    if arity > max_arity:
        raise ResourceCap(f"poset arity {arity} exceeds cap {max_arity}")


def build_poset(
    labels: Sequence[str],
    pairs: Iterable[tuple[str, str]],
    kind: str = "covers",
    max_arity: int = DEFAULT_MAX_ARITY,
) -> Poset:
    """Build a poset from either cover pairs or a full relation.

    kind="covers": the reflexive-transitive closure of ``pairs`` is taken;
    a directed cycle raises CycleDetected.  kind="full": ``pairs`` is the
    entire relation and the three axioms are checked as given.
    """
    labels = tuple(labels)
    _check_arity(len(labels), max_arity)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel("poset labels must be distinct")
    if kind not in ("covers", "full"):
        raise ValueError(f"kind must be 'covers' or 'full', got {kind!r}")

    n = len(labels)
    index = {name: i for i, name in enumerate(labels)}
    rows = [0] * n
    for a, b in pairs:
        if a not in index:
            raise UnknownElement(f"unknown element {a!r} in relation")
        if b not in index:
            raise UnknownElement(f"unknown element {b!r} in relation")
        rows[index[a]] |= 1 << index[b]

    if kind == "covers":
        for i in range(n):
            rows[i] |= 1 << i
        for k in range(n):
            bit = 1 << k
            for i in range(n):
                if rows[i] & bit:
                    rows[i] |= rows[k]
        for i in range(n):
            for j in _mask_members(rows[i]):
                if i != j and (rows[j] >> i) & 1:
                    raise CycleDetected(
                        f"cover pairs contain a cycle through "
                        f"{labels[i]!r} and {labels[j]!r}"
                    )
        # the closure is reflexive and transitive, and antisymmetric without a cycle
        return _trusted(Poset, labels=labels, up_masks=tuple(rows))
    return Poset(labels, tuple(rows))


def _upper_mask(poset: Poset, mask: int) -> int:
    """A^u of a mask: one table lookup per chunk of 8 elements."""
    return _table_and(poset._up_tables, poset.full_mask, mask)


def _lower_mask(poset: Poset, mask: int) -> int:
    """A^l of a mask: one table lookup per chunk of 8 elements."""
    return _table_and(poset._down_tables, poset.full_mask, mask)


def _closure_mask(poset: Poset, mask: int) -> int:
    """A^ul of a mask, the least cut containing it: the two table lookups in a row."""
    full = poset.full_mask
    return _table_and(poset._down_tables, full, _table_and(poset._up_tables, full, mask))


def _join(poset: Poset, masks: Iterable[int]) -> int:
    """Sup of cut masks: the closure of their union; the least cut for none."""
    return _closure_mask(poset, reduce(or_, masks, 0))


def _meet(poset: Poset, masks: Iterable[int]) -> int:
    """Inf of cut masks: their intersection; the full carrier for none."""
    return reduce(and_, masks, poset.full_mask)


def upper_bounds(poset: Poset, subset: Subset) -> Subset:
    """All common upper bounds of the subset; the full carrier for {}."""
    _require_same_parent(poset, subset)
    return Subset(poset, _upper_mask(poset, subset.mask))


def lower_bounds(poset: Poset, subset: Subset) -> Subset:
    """All common lower bounds of the subset; the full carrier for {}."""
    _require_same_parent(poset, subset)
    return Subset(poset, _lower_mask(poset, subset.mask))


def has_minimum(poset: Poset) -> bool:
    return any(row == poset.full_mask for row in poset.up_masks)


def has_maximum(poset: Poset) -> bool:
    return any(row == poset.full_mask for row in poset.down_masks)


def minimum_index(poset: Poset, mask: int) -> int | None:
    """Index of the least member of the masked subset, or None."""
    for i in _mask_members(mask):
        if mask & ~poset.up_masks[i] == 0:
            return i
    return None


def maximum_index(poset: Poset, mask: int) -> int | None:
    """Index of the greatest member of the masked subset, or None."""
    for i in _mask_members(mask):
        if mask & ~poset.down_masks[i] == 0:
            return i
    return None
