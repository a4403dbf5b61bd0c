"""Seeded inputs and op lists of the three workloads.

A pass is one list of ops; every op is one CLI command on one input file.
Each pass has its own tag, which is part of every label it writes, so no
input is ever run twice in one process (``oracle._brute_image_table`` is
an ``lru_cache`` keyed by value, and a repeated input would be timed as a
cache hit that no CLI user gets).  ``small=True`` builds the same pass at
a tiny size; warm-up and the smoke mode use it.

Workloads, and why each was chosen:

* ``capscale``: cap-scale posets (S_8, S_9, S_10 with 0-6 of its missing
  pairs restored, boolean(4), divisor(60), chain(20), the gridfn(2,4)
  codomain) through every command, S_10 itself through ``complete``
  only, and equations into S_9/S_10 under
  identity, three-class collapsing and random maps, each with several
  targets.  The quadratic and
  cubic kernels (enumeration, verification, covers, codomain completion)
  do almost all the work; the k-sweep and the collapsing maps separate
  output size from wasted codomain work.
* ``corpus``: many small posets (<= 12 elements) and seeded random
  equations.  Per-call overhead and the naive oracle do the work, so
  asymptotic kernel gains should not show here.
* ``cli``: tiny inputs, each op a cold ``python -m ordercomplete``
  process, including error paths that must exit 1, 2 or 3.  Interpreter
  start, import, argparse and file I/O dominate; kernels should read as
  unchanged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ordercomplete import build_poset, jsonio
from ordercomplete.generators import STENCILS, GeneratorSpec, describe, random_equation
from ordercomplete.oracle import brute_closure, brute_cuts
from ordercomplete.poset import Poset

import gate

@dataclass
class Op:
    command: str
    argv: list[str]
    exits: tuple[int, ...]
    check: Callable[[str, int], None]


def standard(n: int, restored=()) -> tuple:
    """S_n (a_i < b_j for i != j) with the pairs (a_i, b_i), i in ``restored``, put back."""
    a = [f"a{i}" for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    pairs = [(a[i], b[j]) for i in range(n) for j in range(n) if i != j or i in restored]
    return tuple(a + b), pairs, "covers"


def family(name: str, **params) -> tuple:
    return describe(GeneratorSpec(name, **params))


class Pass:
    """Writes one pass's input files under ``directory`` and collects its ops."""

    def __init__(self, directory: Path, seed: int, tag: str):
        self.directory = directory
        self.rng = random.Random(f"{seed}:{tag}")
        self.tag = tag
        self.files = 0
        self.named = 0
        self.ops: list[Op] = []
        directory.mkdir(parents=True, exist_ok=True)

    def write(self, data=None, text: str | None = None) -> str:
        self.files += 1
        path = self.directory / f"{self.tag}-{self.files}.json"
        path.write_text(json.dumps(data) if text is None else text, encoding="utf-8")
        return str(path)

    def names(self, labels, prefix: str = "") -> dict[str, str]:
        """Names for the labels that no other input of the run uses."""
        self.named += 1
        slots = self.rng.sample(range(len(labels)), len(labels))
        return {old: f"{prefix}{self.tag}i{self.named}_{s}" for old, s in zip(labels, slots)}

    def poset(self, spec) -> tuple[dict, Poset, dict[str, str]]:
        """Relabel and shuffle (labels, pairs, kind) into file data and a value."""
        labels, pairs, kind = spec
        names = self.names(labels)
        elements = [names[x] for x in labels]
        self.rng.shuffle(elements)
        relation = [[names[a], names[b]] for a, b in pairs]
        poset = build_poset(elements, [tuple(p) for p in relation], kind)
        return {"elements": elements, "relation": relation, "relation_kind": kind}, poset, names

    def equation(self, domain, codomain_spec, mapping) -> tuple[str, gate.Equation, Poset, dict]:
        """Write a relabelled equation; returns path, gate view, codomain and codomain names."""
        cod_data, codomain, cod_names = self.poset(codomain_spec)
        dom_names = self.names(domain, prefix="x")
        data = {
            "domain": {"elements": [dom_names[x] for x in domain]},
            "codomain": cod_data,
            "map": {dom_names[x]: cod_names[y] for x, y in mapping.items()},
        }
        return self.write(data), gate.Equation(data), codomain, cod_names

    # ---------------------------------------------------------------- ops

    def poset_ops(self, spec, commands=("complete", "export")) -> None:
        """Write a relabelled poset and add one op per command or check suite."""
        data, poset, _ = self.poset(spec)
        path = self.write(data)
        for command in commands:
            if command == "complete":
                self.ops.append(Op("complete", ["complete", "--input", path], (0,),
                                   lambda out, code: gate.check_complete(poset, out)))
            elif command == "export":
                self.ops.append(Op("export", ["export", "--input", path], (0,),
                                   lambda out, code: gate.check_export(poset, out)))
            else:
                self.check(command, path)

    def check(self, suite: str, path: str | None = None) -> None:
        argv = ["check", suite] + ([] if path is None else ["--input", path])
        self.ops.append(Op("check", argv, (0,), lambda out, code: gate.check_suite(out)))

    def solve(self, path: str, equation: gate.Equation, target: dict, pullback=None, exits=(0, 1)) -> None:
        target_path = self.write(target)
        self.ops.append(Op(
            "solve", ["solve", "--input", path, "--target", target_path], exits,
            lambda out, code: gate.check_solve(equation, target, pullback, code, out),
        ))

    def failing(self, command: str, argv: list[str], exit_code: int) -> None:
        """An error-path op: it must exit with ``exit_code`` and print nothing."""
        self.ops.append(Op(command, argv, (exit_code,), lambda out, code: gate.check_silent(out)))

    def targets(self, codomain: Poset, principal: list[str], count: int) -> list[dict]:
        """``count`` distinct target cuts: principal cuts of the given
        elements first, then closures of one to three random elements."""
        chosen: dict[int, dict] = {}
        for name in principal:
            chosen.setdefault(codomain.down_masks[codomain.index(name)], {"principal": name})
        for _ in range(50 * count):
            if len(chosen) >= count:
                break
            picks = self.rng.sample(range(codomain.arity), self.rng.randint(1, min(3, codomain.arity)))
            mask = brute_closure(codomain, sum(1 << i for i in picks))
            names = [codomain.labels[i] for i in range(codomain.arity) if (mask >> i) & 1]
            chosen.setdefault(mask, {"cut": names})
        return list(chosen.values())[:count]

    def every_target(self, codomain: Poset) -> list[dict]:
        return [{"cut": list(cut.names())} for cut in brute_cuts(codomain)]


# ------------------------------------------------------------- workloads

# (codomain, domain) sizes of the corpus equations; fixed so that the
# work of a pass does not swing with the seed
EQUATION_SIZES = ((6, 6), (5, 6), (6, 4), (4, 5), (6, 5), (5, 3), (3, 6), (6, 2))


def sized_equation(rng: random.Random, codomain: int, domain: int):
    """The first ``random_equation`` of the given sizes, over seeds drawn from rng."""
    while True:
        instance = random_equation(rng.randrange(2**31))
        if (instance.codomain.arity, instance.domain.arity) == (codomain, domain):
            return instance


def capscale(p: Pass, small: bool) -> None:
    big = 6 if small else 10
    specs = [standard(n) for n in ((4, 5) if small else (8, 9))]
    specs += [standard(big, p.rng.sample(range(big), k)) for k in ((1, 2) if small else (1, 2, 3, 4, 6))]
    # Each cap-scale shape runs twice, relabelled, so that the few ops of
    # a second or more that make up complete_s and export_s are averaged.
    # S_10 itself is not exported: on a shared 2-vCPU host that one 4-9 s
    # op alone set export_s's run-to-run spread to 24%, as calibration
    # cannot follow the machine inside a single op.  S_9 and S_10 with one pair back (512 and 532
    # cuts) run the same cubic covers kernel.
    for spec in specs * 2:
        p.poset_ops(spec)
    for _ in range(2):
        p.poset_ops(standard(big), ("complete",))
    p.poset_ops(family("boolean", k=2 if small else 4), ("complete", "export", "cutcalc"))
    p.poset_ops(family("divisor", m=12 if small else 60), ("complete", "export", "cutcalc", "macneille"))
    p.poset_ops(family("chain", n=5 if small else 20), ("complete", "export", "macneille"))
    p.poset_ops(family("gridfn", g=2, v=2 if small else 4)[1])

    # Targets per map: the many S_9 solves put p90 inside the cluster of
    # S_10 identity solves instead of at its edge.
    for n, per_map in ((4, 3), (5, 3)) if small else ((9, 30), (10, 12)):
        spec = standard(n)
        labels = spec[0]
        identity = {f"u{x}": x for x in labels}
        path, eq, codomain, _ = p.equation(list(identity), spec, identity)
        pullback = {y: x for x, y in eq.data["map"].items()}
        for target in p.targets(codomain, [], per_map):
            p.solve(path, eq, target, pullback)
        p.check("theorem42", path)

        domain = [f"u{i}" for i in range(12)]
        images = p.rng.sample(labels[:n], 3)  # three minimal elements: 5 quotient cuts
        collapse = {x: images[i % 3] for i, x in enumerate(domain)}
        scatter = {x: p.rng.choice(labels) for x in domain}
        for mapping in (collapse, scatter):
            path, eq, codomain, cod = p.equation(domain, spec, mapping)
            hit = sorted({cod[y] for y in mapping.values()})
            for target in p.targets(codomain, hit[: per_map // 2], per_map):
                p.solve(path, eq, target)
            p.check("theorem41", path)
            p.check("theorem42", path)


def corpus(p: Pass, small: bool) -> None:
    if small:
        specs = [family("chain", n=3), family("boolean", k=2)]
    else:
        specs = [family("chain", n=n) for n in (2, 4, 6, 8)]
        specs += [family("antichain", n=n) for n in (2, 4, 6, 8)]
        specs += [family("boolean", k=k) for k in (2, 3)]
        specs += [family("divisor", m=m) for m in (12, 30, 36, 60)]
    # fixed sizes and densities, seeded structure; sizes stop at 8 so that
    # the check suites' 2^n subset scans of random posets, whose cost
    # swings with the structure, stay a small share of the pass
    for i in range(1 if small else 14):
        n = 4 + i % 5
        density = (0.15, 0.3, 0.5, 0.7)[i % 4]
        specs.append(family("random", n=n, density=density, seed=p.rng.randrange(2**31)))
    for spec in specs:
        p.poset_ops(spec, ("complete", "export", "cutcalc", "macneille"))

    for sizes in EQUATION_SIZES[:1] if small else EQUATION_SIZES:
        instance = sized_equation(p.rng, *sizes)
        data = jsonio.equation_to_data(instance.domain, instance.codomain, instance.t)
        cod = data["codomain"]
        spec = (cod["elements"], [tuple(x) for x in cod["relation"]], cod["relation_kind"])
        path, eq, codomain, _ = p.equation(data["domain"]["elements"], spec, data["map"])
        p.check("theorem41", path)
        p.check("theorem42", path)
        for target in p.every_target(codomain):
            p.solve(path, eq, target)

    for stencil in STENCILS[:1] if small else STENCILS:
        domain, spec, mapping = family("gridfn", g=2, v=2 if small else 3, stencil=stencil)
        path, eq, codomain, _ = p.equation(domain, spec, mapping)
        for target in p.every_target(codomain):
            p.solve(path, eq, target)


def cli(p: Pass, small: bool) -> None:
    p.poset_ops(family("chain", n=3))
    labels, pairs, kind = family("chain", n=3)
    chain = {"elements": list(labels), "relation": [list(x) for x in pairs], "relation_kind": kind}
    p.ops.append(Op("gen", ["gen", "--family", "chain", "--n", "3"], (0,),
                    lambda out, code: gate.check_gen(chain, out)))
    p.poset_ops(family("boolean", k=3), ("complete", "macneille"))
    p.poset_ops(family("random", n=6, density=0.3, seed=p.rng.randrange(2**31)), ("complete", "export", "cutcalc"))

    domain, spec, mapping = family("gridfn", g=2, v=2)
    path, eq, codomain, cod = p.equation(domain, spec, mapping)
    for target in p.every_target(codomain):
        p.solve(path, eq, target)
    p.check("theorem41", path)
    p.check("theorem42", path)
    if not small:
        p.check("closedforms")

    # error paths: unsolvable (1), malformed JSON and a non-cut target (2), a cap (3)
    bottom = {x: "00" for x in domain}
    path_b, eq_b, _, cod_b = p.equation(domain, spec, bottom)
    p.solve(path_b, eq_b, {"principal": cod_b["11"]}, exits=(1,))
    p.failing("complete", ["complete", "--input", p.write(text="{not json")], 2)
    p.failing("solve", ["solve", "--input", path, "--target", p.write({"cut": [cod["11"]]})], 2)
    p.failing("gen", ["gen", "--family", "boolean", "--k", "20"], 3)


WORKLOADS = {"capscale": capscale, "corpus": corpus, "cli": cli}


def build_pass(workload: str, directory: Path, seed: int, tag: str, small: bool) -> list[Op]:
    p = Pass(directory, seed, tag)
    WORKLOADS[workload](p, small)
    return p.ops
