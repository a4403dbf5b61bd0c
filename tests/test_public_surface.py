"""Every exported name has a user: code in the package or the README;
every name a module imports is used in that module; the oracle imports
no kernel of the fast path; and the README's table of caps and check
budgets states the value of every such constant."""

import ast
import re
import types
from importlib import import_module
from pathlib import Path

import ordercomplete

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ordercomplete"


def _definition(name):
    return re.compile(rf"^\s*(?:def|class)\s+{name}\b|^{name}\s*=", re.M)


def test_every_exported_name_is_used_outside_its_definition():
    sources = [
        path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for name in ordercomplete.__all__:
        if isinstance(getattr(ordercomplete, name), types.ModuleType):
            continue
        word = re.compile(rf"\b{name}\b")
        uses = sum(
            len(word.findall(text)) - len(_definition(name).findall(text))
            for text in sources
        )
        if uses == 0 and not word.search(readme):
            unused.append(name)
    assert not unused, "exported but used nowhere: " + ", ".join(unused)


def _string_annotation_names(tree):
    """Names inside string annotations such as ``"PosetMap"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for inner in ast.walk(ast.parse(node.value, mode="eval")):
                    if isinstance(inner, ast.Name):
                        yield inner.id


def unused_imports(text):
    """Names the module text imports and never reads."""
    tree = ast.parse(text)
    imported = [
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import | ast.ImportFrom)
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_string_annotation_names(tree))
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    text = "from __future__ import annotations\nfrom x import a, b, c\nimport d.e\n"
    text += "def f(y: a) -> 'list[b]':\n    return d.e\n"
    assert unused_imports(text) == ["c"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not unused, f"imported but never used: {unused}"


def test_oracle_shares_no_kernel_with_the_fast_path():
    """What its docstring promises: of ``poset`` and ``completion``, the
    oracle imports only the value type, the return container and the
    completion it scans."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    paths = {
        f"{getattr(node, 'module', None) or ''}.{alias.name}".strip(".")
        for node in ast.walk(tree)
        if isinstance(node, ast.Import | ast.ImportFrom)
        for alias in node.names
    }
    fast = {path for path in paths if {"poset", "completion"} & set(path.split("."))}
    assert fast == {"poset.Poset", "poset.Subset", "completion.CompletedPoset"}


CAPS_AND_BUDGETS = {
    "DEFAULT_MAX_ARITY", "DEFAULT_MAX_CUTS", "DIVISOR_MAX_M",
    "EXHAUSTIVE_MASKS", "FAMILY_SAMPLE", "BOUND_SCAN_SAMPLE",
}


def _spellings(value):
    """The ways the table writes a number: 4,096 or 10^12."""
    powers = {f"{b}^{e}" for b in range(2, 11) for e in range(2, 41) if b**e == value}
    return {f"{value:,}"} | powers


def test_caps_table_states_every_cap_and_budget():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.partition("Caps and check budgets:")[2].partition("\n\n")[2]
    rows = re.findall(r"^\| [^|]+ \| `(\w+)\.(\w+)` \| ([^|]+) \|", table, re.M)
    assert {name for _, name, _ in rows} == CAPS_AND_BUDGETS
    for module, name, default in rows:
        value = getattr(import_module(f"ordercomplete.{module}"), name)
        number = "|".join(map(re.escape, _spellings(value)))
        assert re.search(rf"(?<![\d,^])({number})(?![\d,^])", default), (
            f"README states {default.strip()!r} for {module}.{name} = {value}"
        )
