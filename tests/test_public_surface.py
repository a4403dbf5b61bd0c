"""Every exported name has a user: code in the package or the README."""

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
