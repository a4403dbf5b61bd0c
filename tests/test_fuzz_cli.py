"""Fuzz the file formats through ``cli.main`` in-process.

Poset, equation, map and target files are raw bytes or arbitrary JSON
values, some of them shaped like the real formats so that the fuzzing
reaches past the schema checks, into every command and `check` suite
that reads them.  Whatever the bytes, the exit-code contract
holds: nothing escapes ``main``, the code is one of 0, 1, 2 and 3, and
a second run prints the same stdout.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercomplete import cli

names = st.text(alphabet="abcxyzé∀", max_size=3)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | names,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(names, children, max_size=4),
    max_leaves=12,
)

# small label pools make the format-shaped files agree with each other
# often enough to reach completion and solving
codomain_names = st.sampled_from(["p", "q", "r", "s", "t"])
domain_names = st.sampled_from(["u", "v", "w"])


@st.composite
def poset_of(draw, labels, elements):
    """A poset file whose relation mostly names listed elements."""
    elements = draw(elements)
    pair_names = st.sampled_from(elements) if elements else labels
    return {
        "elements": elements,
        "relation": draw(st.lists(st.lists(pair_names, min_size=2, max_size=2), max_size=5)),
        "relation_kind": draw(st.sampled_from(["covers", "covers", "full", "other"])),
    }


def poset_on(labels, unique):
    return poset_of(labels, st.lists(labels, max_size=5, unique=unique))


poset_shaped = poset_on(names, unique=False) | poset_on(codomain_names, unique=True)


@st.composite
def equation_shaped(draw):
    """An equation whose map is total, though possibly onto unknown names."""
    codomain = draw(poset_on(codomain_names, unique=True))
    domain = draw(st.lists(domain_names, min_size=1, max_size=3, unique=True))
    images = st.sampled_from(codomain["elements"] or ["p"])
    return {
        "domain": {"elements": domain},
        "codomain": codomain,
        "map": {name: draw(images) for name in domain},
    }


@st.composite
def map_shaped(draw):
    """A map file posing an equation; its source is the domain, bare or ordered."""
    equation = draw(equation_shaped())
    domain = equation["domain"]
    source = draw(st.just(domain) | poset_of(domain_names, st.just(domain["elements"])))
    return {"source": source, "target": equation["codomain"], "map": equation["map"]}


target_shaped = st.one_of(
    st.fixed_dictionaries({"cut": st.lists(codomain_names, max_size=4, unique=True)}),
    st.fixed_dictionaries({"principal": codomain_names}),
)


def _encode(value):
    return json.dumps(value, ensure_ascii=False).encode("utf-8")


def files(shaped):
    """File contents: raw bytes, any JSON value, or a format-shaped value."""
    return st.one_of(st.binary(max_size=40), json_values.map(_encode), shaped.map(_encode))


def run_twice(argv):
    """(exit code, stdout) of two in-process runs; both must agree."""
    results = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        results.append((code, out.getvalue()))
    assert results[0] == results[1]
    return results[0]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", ["complete", "export"])
@settings(max_examples=150)
@given(content=files(poset_shaped))
def test_poset_commands_keep_the_contract(workdir, command, content):
    path = workdir / f"{command}.json"
    path.write_bytes(content)
    code, stdout = run_twice([command, "--input", str(path)])
    assert code in (0, 2, 3)
    assert (stdout == "") == (code != 0)


def _check_keeps_the_contract(workdir, suite, content):
    path = workdir / f"{suite}.json"
    path.write_bytes(content)
    code, stdout = run_twice(["check", suite, "--input", str(path)])
    assert code in (0, 1, 2, 3)
    assert (stdout == "") == (code in (2, 3))


@pytest.mark.parametrize("suite", ["cutcalc", "macneille"])
@settings(max_examples=50)
@given(content=files(poset_shaped))
def test_poset_suites_keep_the_contract(workdir, suite, content):
    _check_keeps_the_contract(workdir, suite, content)


@pytest.mark.parametrize("suite", ["theorem41", "theorem42"])
@settings(max_examples=50)
@given(content=files(equation_shaped()))
def test_equation_suites_keep_the_contract(workdir, suite, content):
    _check_keeps_the_contract(workdir, suite, content)


def _solve_keeps_the_contract(workdir, flag, equation, target):
    equation_path = workdir / "equation.json"
    target_path = workdir / "target.json"
    equation_path.write_bytes(equation)
    target_path.write_bytes(target)
    code, stdout = run_twice(["solve", flag, str(equation_path), "--target", str(target_path)])
    assert code in (0, 1, 2, 3)
    assert (stdout == "") == (code not in (0, 1))


@settings(max_examples=150)
@given(equation=files(equation_shaped()), target=files(target_shaped))
def test_solve_keeps_the_contract(workdir, equation, target):
    _solve_keeps_the_contract(workdir, "--input", equation, target)


@settings(max_examples=150)
@given(equation=equation_shaped().map(_encode), target=target_shaped.map(_encode))
def test_solve_on_format_shaped_files(workdir, equation, target):
    _solve_keeps_the_contract(workdir, "--input", equation, target)


@settings(max_examples=50)
@given(mapping=files(map_shaped()), target=target_shaped.map(_encode))
def test_solve_map_keeps_the_contract(workdir, mapping, target):
    _solve_keeps_the_contract(workdir, "--map", mapping, target)
