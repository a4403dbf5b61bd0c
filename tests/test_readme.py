"""The README's Python examples run, in order, in one namespace.

An expression or a single-target assignment whose trailing comment
starts with a Python literal (``# 2``, ``# (1, 1, 3): ...``) must have
that value; the rest of the comment is prose.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def _leading_literal(comment: str):
    """(True, value) for the longest prefix of the comment that is a literal."""
    for end in range(len(comment), 0, -1):
        try:
            return True, ast.literal_eval(comment[:end].strip())
        except (ValueError, SyntaxError, TypeError):
            continue
    return False, None


def _comments(source: str) -> dict[int, str]:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:] for tok in tokens if tok.type == tokenize.COMMENT}


def test_readme_examples_hold():
    blocks = _blocks()
    assert len(blocks) == 3
    namespace: dict = {}
    checked = []
    for block in blocks:
        comments = _comments(block)
        for statement in ast.parse(block).body:
            if isinstance(statement, ast.Expr):
                value = eval(ast.unparse(statement.value), namespace)
            else:
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
                if not (isinstance(statement, ast.Assign) and len(statement.targets) == 1):
                    continue
                value = eval(ast.unparse(statement.targets[0]), namespace)
            found, expected = _leading_literal(comments.get(statement.end_lineno, ""))
            if found:
                assert value == expected, ast.unparse(statement)
                checked.append(ast.unparse(statement))
    assert len(checked) == 8, checked
