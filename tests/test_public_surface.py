"""Every exported name has a user: code in the package or the README;
and every name a module imports is used in that module."""

import ast
import re
import types
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
