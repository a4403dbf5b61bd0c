"""Deterministic instance families for tests, docs and benchmarks.

Same spec, same instance: the random family uses the Mersenne Twister
stream of :class:`random.Random` seeded with the given seed, whose
sequence CPython guarantees stable across platforms and versions.

The gridfn family builds the poset of all functions from g grid points
to v levels under the pointwise order, together with a monotone local
stencil acting on it; it is a small, fully checkable stand-in for an
operator equation between function spaces and claims nothing beyond
that.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Union

from .errors import BadSpec, ResourceCap
from .poset import DEFAULT_MAX_ARITY, CarrierSet, Poset, _mask_members, build_poset
from .mapext import PosetMap
from .solver import EquationInstance, build_equation

DIVISOR_MAX_M = 10**12  # the divisor scan takes isqrt(m) steps before the element cap
_LETTERS = "abcdefghijkl"
STENCILS = ("identity", "dilate", "erode")

PosetData = tuple[tuple[str, ...], list[tuple[str, str]], str]
EquationData = tuple[tuple[str, ...], PosetData, dict[str, str]]


@dataclass(frozen=True)
class GeneratorSpec:
    """One instance family plus its parameters."""

    family: str
    n: int | None = None
    k: int | None = None
    m: int | None = None
    density: float | None = None
    seed: int | None = None
    g: int | None = None
    v: int | None = None
    stencil: str | None = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadSpec(message)


def _cap(count: int, what: str) -> None:
    """Refuse what every reading command would refuse at its default arity cap."""
    if count > DEFAULT_MAX_ARITY:
        raise ResourceCap(f"{what} would have {count} elements, cap is {DEFAULT_MAX_ARITY}")


def _cap_power(base: int, exponent: int, what: str) -> None:
    """``_cap(base**exponent)`` for base >= 2, without building a huge power."""
    if exponent >= DEFAULT_MAX_ARITY.bit_length():  # then base**exponent > the cap
        raise ResourceCap(
            f"{what} would have {base}**{exponent} elements, cap is {DEFAULT_MAX_ARITY}"
        )
    _cap(base**exponent, what)


def _random_pairs(rng: random.Random, labels: tuple[str, ...], density: float) -> list:
    """Each pair (labels[i], labels[j]) with i < j, kept when its draw from
    ``rng`` is below ``density``; one draw per pair, in row order."""
    n = len(labels)
    return [
        (labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]


def chain_data(n: int) -> PosetData:
    _require(n >= 1, "chain needs n >= 1")
    _cap(n, "chain")
    labels = tuple(f"c{i}" for i in range(n))
    pairs = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    return labels, pairs, "covers"


def antichain_data(n: int) -> PosetData:
    _require(n >= 1, "antichain needs n >= 1")
    _cap(n, "antichain")
    return tuple(f"a{i}" for i in range(n)), [], "covers"


def _boolean_label(mask: int) -> str:
    if mask == 0:
        return "0"
    return "".join(_LETTERS[i] for i in _mask_members(mask))


def boolean_data(k: int) -> PosetData:
    _require(k >= 0, "boolean needs k >= 0")
    _cap_power(2, k, "boolean lattice")  # the cap also keeps k within the label alphabet
    labels = tuple(_boolean_label(mask) for mask in range(1 << k))
    pairs = []
    for mask in range(1 << k):
        for bit in range(k):
            if not (mask >> bit) & 1:
                pairs.append((labels[mask], labels[mask | (1 << bit)]))
    return labels, pairs, "covers"


def divisor_data(m: int) -> PosetData:
    _require(m >= 1, "divisor needs m >= 1")
    if m > DIVISOR_MAX_M:
        raise ResourceCap(f"divisor needs m <= {DIVISOR_MAX_M}, got {m}")
    # divisors pair up as d and m // d with d <= sqrt(m)
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    divisors = small + [m // d for d in reversed(small) if d * d != m]
    _cap(len(divisors), "divisor lattice")
    labels = tuple(str(d) for d in divisors)
    pairs = [
        (str(a), str(b)) for a in divisors for b in divisors if b % a == 0
    ]
    return labels, pairs, "full"


def random_data(n: int, density: float, seed: int) -> PosetData:
    _require(n >= 1, "random needs n >= 1")
    _require(0.0 <= density <= 1.0, "density must lie in [0, 1]")
    _cap(n, "random poset")
    labels = tuple(f"v{i}" for i in range(n))
    return labels, _random_pairs(random.Random(seed), labels, density), "covers"


def _grid_label(point: tuple[int, ...]) -> str:
    return "".join(str(d) for d in point)


def _stencil_apply(name: str, u: tuple[int, ...]) -> tuple[int, ...]:
    g = len(u)
    if name == "identity":
        return u
    out = []
    for i in range(g):
        window = u[max(0, i - 1) : i + 2]
        out.append(max(window) if name == "dilate" else min(window))
    return tuple(out)


def gridfn_data(g: int, v: int, stencil: str) -> EquationData:
    _require(g >= 1, "gridfn needs g >= 1")
    _require(2 <= v <= 10, "gridfn needs 2 <= v <= 10")
    _require(stencil in STENCILS, f"stencil must be one of {STENCILS}")
    _cap_power(v, g, "grid function poset")
    points = list(itertools.product(range(v), repeat=g))
    labels = tuple(_grid_label(p) for p in points)
    pairs = []
    for p in points:
        for i in range(g):
            if p[i] + 1 < v:
                q = p[:i] + (p[i] + 1,) + p[i + 1 :]
                pairs.append((_grid_label(p), _grid_label(q)))
    mapping = {_grid_label(p): _grid_label(_stencil_apply(stencil, p)) for p in points}
    return labels, (labels, pairs, "covers"), mapping


def describe(spec: GeneratorSpec) -> Union[PosetData, EquationData]:
    """Raw structure of an instance, without building or validating it.

    Used by the CLI to emit instances without validating them; ``generate``
    builds the same data into validated values.
    """
    family = spec.family
    if family == "chain":
        _require(spec.n is not None, "chain needs --n")
        return chain_data(spec.n)
    if family == "antichain":
        _require(spec.n is not None, "antichain needs --n")
        return antichain_data(spec.n)
    if family == "boolean":
        _require(spec.k is not None, "boolean needs --k")
        return boolean_data(spec.k)
    if family == "divisor":
        _require(spec.m is not None, "divisor needs --m")
        return divisor_data(spec.m)
    if family == "random":
        _require(spec.n is not None, "random needs --n")
        density = 0.3 if spec.density is None else spec.density
        seed = 0 if spec.seed is None else spec.seed
        return random_data(spec.n, density, seed)
    if family == "gridfn":
        _require(spec.g is not None and spec.v is not None, "gridfn needs --g and --v")
        stencil = "identity" if spec.stencil is None else spec.stencil
        return gridfn_data(spec.g, spec.v, stencil)
    raise BadSpec(f"unknown family {spec.family!r}")


def generate(spec: GeneratorSpec) -> Union[Poset, EquationInstance]:
    """Build the instance a spec describes: a poset, or for the gridfn
    family a full equation instance (stencil map plus completions)."""
    data = describe(spec)
    if spec.family == "gridfn":
        domain_labels, (labels, pairs, kind), mapping = data
        codomain = build_poset(labels, pairs, kind)
        domain = CarrierSet(domain_labels)
        t = PosetMap.from_names(domain, codomain, mapping)
        return build_equation(domain, codomain, t)
    labels, pairs, kind = data
    return build_poset(labels, pairs, kind)


def random_equation(seed: int) -> EquationInstance:
    """A seeded equation instance: random codomain poset, random map into it."""
    rng = random.Random(seed)
    ny = rng.randint(2, 6)
    density = rng.uniform(0.1, 0.7)
    ylabels = tuple(f"y{i}" for i in range(ny))
    codomain = build_poset(ylabels, _random_pairs(rng, ylabels, density), "covers")
    nx = rng.randint(1, 6)
    domain = CarrierSet(tuple(f"x{i}" for i in range(nx)))
    mapping = {name: ylabels[rng.randrange(ny)] for name in domain.labels}
    t = PosetMap.from_names(domain, codomain, mapping)
    return build_equation(domain, codomain, t)
