"""The oracles stay independent of the derivative engine.

`semantics.lang_bounded` and relational search back the decision
procedures, so neither may reach `decide`, `reduction` or `domain`
through package-internal imports.  This is read from the sources, since
importing any module runs `topkat/__init__`, which imports them all.
"""

import ast
import types
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


def test_triples_are_decided_without_relational_models():
    # an incorrectness triple is one TopKAT inequation, decided completely
    assert not internal_imports()["logic"] & {"domain", "relmodel"}


def test_oracles_do_not_import_the_engine():
    graph = internal_imports()
    for oracle in ("semantics", "relmodel"):
        assert not closure(graph, oracle) & ENGINE, oracle


# Adding or removing an export is an API decision: it shows in this list.
# Submodules are left out, since which of them are attributes of the
# package depends on what has been imported.
PUBLIC_API = [
    "Act", "Alphabet", "Atom", "ComparisonVerdict", "Dot", "Equivalent",
    "GuardedString", "Not", "One", "ParseError", "Plus",
    "Provable", "RelCountermodel", "RelInterpretation", "Relation",
    "ResourceLimitError", "SearchBudget", "SortError", "Star", "TOP_ACTION", "Term",
    "Test", "Top", "TopNotAllowedError", "TopkatError", "Triple",
    "UndeclaredIdentifierError", "Verdict", "Witness", "Zero", "all_atoms",
    "check_triple", "cod_geq", "contains_top",
    "declare_alphabet", "dom_geq", "equivalent", "evaluate",
    "falsify_implication", "lang_bounded", "leq", "member", "parse",
    "render", "search_countermodel", "topkat_equivalent",
    "topkat_leq",
]


def test_public_api_is_pinned():
    names = sorted(name for name in dir(topkat) if not name.startswith("_")
                   and not isinstance(getattr(topkat, name), types.ModuleType))
    assert names == PUBLIC_API


def test_every_public_name_is_exported_or_used():
    # a public function or class that the package neither exports nor uses
    # is test-only code; `gen` is the module that holds such helpers
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py") if path.stem != "gen"}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = {f"{stem}.{node.name}" for stem, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used
              and not hasattr(topkat, node.name)}
    assert unused == set()


# ---------------------------------------------------------------------------
# No recursion: every pass over a term is a loop, so no input depth can
# exhaust the interpreter stack.


def _own_nodes(fn: ast.AST):
    """The nodes of a function's body outside its nested functions and classes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def call_graph(source: str) -> dict[str, set[str]]:
    """Qualified function name -> the functions of the same module it calls:
    by name (module functions, and nested functions in scope), through
    `self.`/`cls.`, and as `Class.method`."""
    tree = ast.parse(source)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    classes = {node.name: {m.name for m in node.body if isinstance(m, defs)}
               for node in tree.body if isinstance(node, ast.ClassDef)}
    graph: dict[str, set[str]] = {}
    todo = [(node, "", {}, None) for node in tree.body]
    module_scope = {node.name: node.name for node in tree.body if isinstance(node, defs)}
    while todo:
        node, prefix, scope, cls = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo += [(m, f"{node.name}.", {}, node.name) for m in node.body]
            continue
        if not isinstance(node, defs):
            continue
        name = prefix + node.name
        nested = [m for m in _own_nodes(node) if isinstance(m, defs)]
        inner = {**module_scope, **scope, **{m.name: f"{name}.{m.name}" for m in nested}}
        callees = graph.setdefault(name, set())
        for call in _own_nodes(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id in inner:
                callees.add(inner[func.id])
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                owner = cls if func.value.id in ("self", "cls") else func.value.id
                if func.attr in classes.get(owner, ()):
                    callees.add(f"{owner}.{func.attr}")
        todo += [(m, f"{name}.", inner, cls) for m in nested]
    return graph


def on_cycles(graph: dict[str, set[str]]) -> set[str]:
    """The functions that can reach themselves through calls."""
    found = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                found.add(start)
                break
            if name not in seen:
                seen.add(name)
                todo.extend(graph.get(name, ()))
    return found


def test_call_cycles_are_found():
    source = '''
def plain(x):
    return helper(x)

def helper(x):
    return x

def self_call(x):
    return self_call(x - 1) if x else 0

def ping(x):
    return pong(x)

def pong(x):
    return ping(x)

def outer(t):
    def go(t):
        return go(t.left)
    return go(t)

class Engine:
    def run(self, t):
        return self.walk(t)

    def walk(self, t):
        return Engine.run(self, t)

    def leaf(self, t):
        return plain(t)
'''
    assert on_cycles(call_graph(source)) == {
        "self_call", "ping", "pong", "outer.go", "Engine.run", "Engine.walk"}


def test_no_function_recurses():
    recursive = {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
                 for name in on_cycles(call_graph(path.read_text(encoding="utf-8")))}
    assert recursive == set()


def test_no_function_calls_itself():
    # the shortest cycle, read from the same call graph: a direct call by
    # the function's own name, or through `self.`/`cls.`
    for path in sorted(PACKAGE.glob("*.py")):
        graph = call_graph(path.read_text(encoding="utf-8"))
        assert [name for name, callees in graph.items() if name in callees] == [], path.name
