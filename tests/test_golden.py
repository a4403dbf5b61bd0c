"""Golden output digests: byte-identical CLI output on a fixed corpus.

Each test runs ``cli.main`` in-process over a fixed set of inputs and
hashes, per run, a name for the run, the exit code, stdout and any
side file.  One sha256 per command pins every byte those commands print, so
a refactor that changes any output fails here.  Inputs are written from
raw generator data and from the relation rows of the seeded equations,
not through ``jsonio``, so they do not move with the code under test.

A digest may only change together with a deliberate, documented output
change.  To show such a change, dump every run of the parent and of the
change and compare the two directories with ``diff -r``::

    PYTHONPATH=src python tests/test_golden.py DIR

writes one file per run (its name, exit code, stdout and side file)
under ``DIR/<command>/``.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from ordercomplete import cli
from ordercomplete.generators import GeneratorSpec, describe, random_equation
from ordercomplete.oracle import brute_cuts

GOLDEN = {
    "complete": "514f897365604aa619cf85fe6069a00361bc924b35313d2a3ab0569d46a85781",
    "export": "67f935047c642085643d4eec7a4084da72a80d9780ed90a3c0c334eef342ebea",
    "solve": "f1422c7c26083e24f427cbcc578bb940de33045b8ffbccd188778e086edf11e1",
    "gen": "81f00334a267080cb86be79baa99cd0ac2a987eaf0dc539f916a04f91d7f762d",
    "check": "62cedd864c6007b98b1e8092dc41fc7c430e84db01c3c5787284f4df80fb5322",
}

GEN_ARGS = [
    ("--family", "chain", "--n", "5"),
    ("--family", "antichain", "--n", "4"),
    ("--family", "boolean", "--k", "3"),
    ("--family", "divisor", "--m", "60"),
    ("--family", "random", "--n", "8", "--density", "0.4", "--seed", "3"),
    ("--family", "gridfn", "--g", "2", "--v", "3", "--stencil", "identity"),
    ("--family", "gridfn", "--g", "2", "--v", "3", "--stencil", "dilate"),
    ("--family", "gridfn", "--g", "3", "--v", "2", "--stencil", "erode"),
]


def _poset_data(labels, pairs, kind):
    return {"elements": list(labels), "relation": [list(p) for p in pairs], "relation_kind": kind}


def _standard(n):
    """S_n: minimal a_i below maximal b_j whenever i != j."""
    lows = [f"a{i}" for i in range(n)]
    highs = [f"b{j}" for j in range(n)]
    pairs = [(a, b) for i, a in enumerate(lows) for j, b in enumerate(highs) if i != j]
    return _poset_data(lows + highs, pairs, "covers")


def _family(**spec):
    return _poset_data(*describe(GeneratorSpec(**spec)))


def poset_corpus():
    posets = [(f"S_{n}", _standard(n)) for n in (4, 5, 6)]
    posets += [
        ("boolean(3)", _family(family="boolean", k=3)),
        ("divisor(60)", _family(family="divisor", m=60)),
        ("chain(5)", _family(family="chain", n=5)),
        ("antichain(4)", _family(family="antichain", n=4)),
    ]
    for seed in range(10):
        density = (0.2, 0.4, 0.6)[seed % 3]
        posets.append(
            (f"random({seed})", _family(family="random", n=4 + seed, density=density, seed=seed))
        )
    return posets


def _full_relation(poset):
    return [
        (poset.labels[i], poset.labels[j])
        for i in range(poset.arity)
        for j in range(poset.arity)
        if (poset.up_masks[i] >> j) & 1
    ]


def equation_corpus():
    """(seed, equation data, codomain) for random_equation seeds 0-49."""
    out = []
    for seed in range(50):
        instance = random_equation(seed)
        codomain = instance.codomain
        data = {
            "domain": {"elements": list(instance.domain.labels)},
            "codomain": _poset_data(codomain.labels, _full_relation(codomain), "full"),
            "map": {
                name: codomain.labels[instance.t.assignment[i]]
                for i, name in enumerate(instance.domain.labels)
            },
        }
        out.append((seed, data, codomain))
    return out


def run_cli(argv):
    """Exit code and stdout of one in-process ``cli.main`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


class Digest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, name, code, stdout, side=""):
        for part in (name, str(code), stdout, side):
            self._hash.update(part.encode("utf-8") + b"\0")

    def hexdigest(self):
        return self._hash.hexdigest()


class Dump:
    """Writes each run that a Digest would hash to a numbered file."""

    def __init__(self, directory):
        self._directory = directory
        self._directory.mkdir(parents=True)
        self._count = 0

    def add(self, name, code, stdout, side=""):
        text = f"name: {name}\nexit: {code}\n--- stdout\n{stdout}"
        if side:
            text += f"--- side\n{side}"
        safe = re.sub(r"[^\w().,=:+-]+", "_", name)
        (self._directory / f"{self._count:04d}_{safe}").write_text(text, encoding="utf-8")
        self._count += 1


def _write(path, data):
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    return str(path)


def run_complete(tmp_path, sink):
    dot = tmp_path / "out.dot"
    for name, data in poset_corpus():
        path = _write(tmp_path / "poset.json", data)
        code, stdout = run_cli(["complete", "--input", path, "--emit-dot", str(dot)])
        sink.add(name, code, stdout, dot.read_text(encoding="utf-8"))
        dot.unlink()


def run_export(tmp_path, sink):
    for name, data in poset_corpus():
        path = _write(tmp_path / "poset.json", data)
        sink.add(name, *run_cli(["export", "--input", path]))


def run_solve(tmp_path, sink):
    for seed, data, codomain in equation_corpus():
        equation = _write(tmp_path / "equation.json", data)
        for cut in brute_cuts(codomain):
            target = _write(tmp_path / "target.json", {"cut": list(cut.names())})
            code, stdout = run_cli(["solve", "--input", equation, "--target", target])
            sink.add(f"{seed}:{cut.mask}", code, stdout)


CHECK_CORPUS_ARGS = [
    ("cutcalc", "--count", "3"),
    ("macneille", "--count", "3"),
    ("closedforms",),
    ("closedforms", "--count", "2"),
    ("theorem41", "--count", "3"),
    ("theorem42", "--count", "3"),
    ("boundchain", "--count", "5"),
]


def check_inputs():
    """(name, data, suites) for the ``check --input`` runs."""
    domain, codomain, mapping = describe(
        GeneratorSpec(family="gridfn", g=2, v=3, stencil="dilate")
    )
    equation = {"domain": {"elements": list(domain)}, "codomain": _poset_data(*codomain), "map": mapping}
    poset_suites = ("cutcalc", "macneille", "boundchain")
    return [
        ("divisor(60)", _family(family="divisor", m=60), poset_suites),
        ("chain(20)", _family(family="chain", n=20), poset_suites),
        ("random(12)", _family(family="random", n=12, density=0.3, seed=5), poset_suites),
        ("gridfn(2,3)", equation, ("theorem41", "theorem42", "closedforms")),
    ]


def run_check(tmp_path, sink):
    for args in CHECK_CORPUS_ARGS:
        sink.add(" ".join(args), *run_cli(["check", *args]))
    for name, data, suites in check_inputs():
        path = _write(tmp_path / "input.json", data)
        for suite in suites:
            sink.add(f"{suite} {name}", *run_cli(["check", suite, "--input", path]))


def run_gen(tmp_path, sink):
    for args in GEN_ARGS:
        sink.add(" ".join(args), *run_cli(["gen", *args]))


RUNS = {
    "complete": run_complete,
    "export": run_export,
    "solve": run_solve,
    "gen": run_gen,
    "check": run_check,
}


@pytest.mark.parametrize("command", list(RUNS))
def test_golden_digest(command, tmp_path):
    digest = Digest()
    RUNS[command](tmp_path, digest)
    assert digest.hexdigest() == GOLDEN[command]


def test_corpus_runs_succeed(tmp_path):
    """The digests cover real output: complete and gen succeed, and solve
    reaches both verdicts."""
    for name, data in poset_corpus()[:3]:
        path = _write(tmp_path / "poset.json", data)
        assert run_cli(["complete", "--input", path])[0] == 0
    codes = set()
    for seed, data, codomain in equation_corpus()[:10]:
        equation = _write(tmp_path / "equation.json", data)
        for cut in brute_cuts(codomain):
            target = _write(tmp_path / "target.json", {"cut": list(cut.names())})
            codes.add(run_cli(["solve", "--input", equation, "--target", target])[0])
    assert codes == {0, 1}
    for args in GEN_ARGS:
        assert run_cli(["gen", *args])[0] == 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py DIR")
    with tempfile.TemporaryDirectory() as scratch:
        for command, runs in RUNS.items():
            runs(Path(scratch), Dump(Path(sys.argv[1]) / command))
