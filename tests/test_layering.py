"""The oracles stay independent of the derivative engine.

`semantics.lang_bounded` and relational search back the decision
procedures, so neither may reach `decide`, `reduction` or `domain`
through package-internal imports.  This is read from the sources, since
importing any module runs `topkat/__init__`, which imports them all.
"""

import ast
from pathlib import Path

import topkat

PACKAGE = Path(topkat.__file__).parent
ENGINE = {"decide", "reduction", "domain"}


def internal_imports() -> dict[str, set[str]]:
    """Module name -> the sibling modules it imports, at any nesting level."""
    graph = {}
    for path in PACKAGE.glob("*.py"):
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    found |= {alias.name for alias in node.names}
                else:
                    found.add(node.module.split(".")[0])
        graph[path.stem] = found
    return graph


def closure(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        for dep in graph.get(name, ()):
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def test_import_graph_is_read():
    graph = internal_imports()
    assert {"decide", "syntax"} <= graph["reduction"]
    assert {"decide", "domain", "logic", "relmodel"} <= graph["cli"]


def test_oracles_do_not_import_the_engine():
    graph = internal_imports()
    for oracle in ("semantics", "relmodel"):
        assert not closure(graph, oracle) & ENGINE, oracle
