"""README's ``## Library`` example runs as written, and every expression
in it whose comment is a Python literal evaluates to that literal, so a
respelled API cannot leave the README stale."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_shows_its_values():
    source = library_block()
    lines = source.splitlines()
    namespace: dict = {}
    shown = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        try:
            expected = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue  # a comment in words
        assert value == expected, lines[node.lineno - 1]
        shown += 1
    assert shown >= 4
