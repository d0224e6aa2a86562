"""Rules checked on the library source itself."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import contrablock

SRC = Path(contrablock.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so a self-check must raise instead
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(SRC.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "assert statements in the library: " + ", ".join(found)


def test_graph_constructor_only_in_graphs():
    # ``Graph(n, adj)`` trusts its neighbour sets to be symmetric and
    # loop-free; everything outside the graph core builds through
    # ``Graph.from_edges``, which checks them
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "graphs.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(SRC.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "Graph" or getattr(node.func, "attr", None) == "Graph")
        ]
    assert not found, "Graph(...) called outside graphs.py: " + ", ".join(found)


def test_vmap_read_only_in_graphs():
    # every quotient the library builds for itself keeps g's vertex ids
    # (``contract_keeping_ids``) and is read through its class map; only the
    # public ``contract_set`` renumbers, so no other module reads ``vmap``
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "graphs.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(SRC.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "vmap"
        ]
    assert not found, ".vmap read outside graphs.py: " + ", ".join(found)


def _bench_names(*targets: str) -> list[str]:
    """The string tuples that ``bench/run.py`` assigns to ``targets``, read
    without importing the benchmark."""
    tree = ast.parse((SRC.parents[1] / "bench" / "run.py").read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in targets for t in node.targets
        ):
            names += ast.literal_eval(node.value)
    return names


def test_benchmark_traced_names_exist():
    # the traced benchmark wraps every public function, or public static
    # method, by name and reads its counters back by the names it lists; a
    # name that no longer exists fails ``bench/run.py --trace 1`` with KeyError
    names = _bench_names("TRACED_FUNCTIONS", "BUILDERS")
    assert len(names) >= 20
    missing = []
    for name in names:
        module_name, *path = name.split(".")
        module = importlib.import_module(f"contrablock.{module_name}")
        if len(path) == 1:
            obj = vars(module).get(path[0])
            ok = inspect.isfunction(obj) and (obj.__module__, obj.__qualname__) == (module.__name__, path[0])
        else:
            owner = vars(module).get(path[0])
            ok = inspect.isclass(owner) and isinstance(vars(owner).get(path[1]), staticmethod)
        if not ok or any(part.startswith("_") for part in path):
            missing.append(name)
    assert not missing, "traced names missing from the library: " + ", ".join(missing)


def test_no_wrapped_module_attributes():
    # ``bench/smoke.py`` reports every ``contrablock`` module attribute that
    # has ``__wrapped__`` as a tracing wrapper left behind (its FOUND line in
    # CHANGES.md), so ``functools.cache``, ``lru_cache`` or ``wraps`` on a
    # module-level function fails all three smoke workloads; this finds it here
    modules = [contrablock] + [importlib.import_module(f"contrablock.{path.stem}")
                               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    assert len(modules) >= 8
    wrapped = [f"{module.__name__}.{name}" for module in modules
               for name, obj in vars(module).items() if hasattr(obj, "__wrapped__")]
    assert not wrapped, "module attributes with __wrapped__: " + ", ".join(wrapped)


# searches whose recursion depth is bounded by a budget, and the exact
# hitting solver, which recurses once per picked vertex: it is not bounded by
# a budget, so `tau p1500.gr --family pattern:k2.gr` still passes the
# recursion limit, and the CLI exits 3 (budget exceeded) with one stderr line
# instead of a traceback; every other function keeps an explicit stack, so no
# input size reaches the recursion limit
RECURSION_ALLOWED = {
    "vertex_cover._min_cover",
    "transversal._fvs_solve",
    "transversal._hit_solve",
}

# cycles of more than one function in a module's call graph
MUTUAL_RECURSION_ALLOWED: set[frozenset[str]] = set()


def _functions(node, prefix: str):
    """(qualified name, node) for every function below ``node``; nested
    functions and methods are named ``outer.inner``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def test_no_direct_recursion():
    found = []
    recursive = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, func in _functions(tree, f"{path.stem}."):
            calls = [
                node.lineno
                for node in ast.walk(func)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == func.name
            ]
            if calls:
                recursive.add(name)
            if calls and name not in RECURSION_ALLOWED:
                found += [f"{path.relative_to(SRC.parent)}:{line} {name}" for line in calls]
    assert not found, "functions that call themselves: " + ", ".join(found)
    stale = RECURSION_ALLOWED - recursive
    assert not stale, "allowed recursion no longer present: " + ", ".join(sorted(stale))


def _call_graph(tree: ast.Module, module: str) -> dict[str, set[str]]:
    """Qualified function name -> the functions of the same module it calls
    by bare name.  A name resolves to the innermost enclosing definition;
    a call inside a nested function or a lambda also counts toward every
    function that encloses it."""
    graph: dict[str, set[str]] = {}

    def defined(body, prefix: str) -> dict[str, str]:
        return {c.name: prefix + c.name for c in body if isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef))}

    def visit(node, prefix: str, scope: dict[str, str], callers: list[str]):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in scope:
            for caller in callers:
                graph[caller].add(scope[node.func.id])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            graph[name] = set()
            prefix = name + "."
            scope = {**scope, **defined(node.body, prefix)}
            callers = callers + [name]
        elif isinstance(node, ast.ClassDef):
            prefix += node.name + "."  # class attributes are not in scope in methods
        for child in ast.iter_child_nodes(node):
            visit(child, prefix, scope, callers)

    visit(tree, module + ".", defined(tree.body, module + "."), [])
    return graph


def _cycles(graph: dict[str, set[str]]) -> set[frozenset[str]]:
    """The groups of functions that reach one another through calls, for
    every function that reaches itself."""
    reach = {}
    for f in graph:
        seen: set[str] = set()
        stack = [f]
        while stack:
            for g in graph[stack.pop()] - seen:
                seen.add(g)
                stack.append(g)
        reach[f] = seen
    return {frozenset(g for g in reach[f] if f in reach[g]) for f in graph if f in reach[f]}


def test_no_mutual_recursion():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= _cycles(_call_graph(tree, path.stem))
    allowed = {frozenset({name}) for name in RECURSION_ALLOWED} | MUTUAL_RECURSION_ALLOWED
    assert not found - allowed, f"recursive call cycles: {sorted(map(sorted, found - allowed))}"
    stale = allowed - found
    assert not stale, f"allowed recursion no longer present: {sorted(map(sorted, stale))}"



def _defined_names(node) -> list[str]:
    """The names a module-level statement binds by definition or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.AnnAssign):
        return [node.target.id] if isinstance(node.target, ast.Name) else []
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def _mentions(node) -> set[str]:
    """The names read, attributes accessed and names imported below ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_no_orphaned_private_helpers():
    # a module-level ``_name`` that no other code in the library mentions is
    # dead: a helper left behind when its last caller was folded away
    tops = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        tops += [(path, node, _mentions(node)) for node in tree.body]
    private = [
        (path, node, name)
        for path, node, _ in tops
        for name in _defined_names(node)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert len(private) >= 20
    orphans = [
        f"{path.relative_to(SRC.parent)}:{node.lineno} {name}"
        for path, node, name in private
        if not any(name in seen for _, other, seen in tops if other is not node)
    ]
    assert not orphans, "private helpers nothing else uses: " + ", ".join(orphans)


def test_exports_are_the_imports_and_each_is_used():
    # ``__all__`` lists exactly what ``__init__`` imports, and each exported
    # name is mentioned somewhere in the library, the tests or the benchmark
    # outside ``__init__``; an export nothing mentions is dead
    init = SRC / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(contrablock.__all__) == sorted(imported)
    root = SRC.parents[1]
    paths = [p for d in (SRC, root / "tests", root / "bench") for p in sorted(d.rglob("*.py")) if p != init]
    seen = set().union(*(_mentions(ast.parse(p.read_text(encoding="utf-8"))) for p in paths))
    unused = sorted(imported - seen)
    assert not unused, "exports nothing outside __init__ uses: " + ", ".join(unused)


def test_public_functions_are_used_outside_the_tests():
    # a public module-level function is exported from ``__init__``, or is
    # mentioned by other library code or by the benchmark (its traced names
    # included); one that only the tests call is dead code kept alive by its
    # own tests
    root = SRC.parents[1]
    tops = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        tops += [(path, node, _mentions(node)) for node in tree.body]
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((root / "bench").rglob("*.py"))]
    used = set(contrablock.__all__).union(*map(_mentions, bench))
    used |= {name.split(".")[-1] for name in _bench_names("TRACED_FUNCTIONS", "BUILDERS")}
    public = [(path, node) for path, node, _ in tops
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")]
    assert len(public) >= 40
    unused = [
        f"{path.relative_to(SRC.parent)}:{node.lineno} {node.name}"
        for path, node in public
        if node.name not in used and not any(node.name in seen for _, other, seen in tops if other is not node)
    ]
    assert not unused, "public functions only the tests use: " + ", ".join(unused)


def test_readme_names_exist():
    # every backticked identifier in README.md that holds an underscore,
    # possibly dotted or followed by a call's parentheses, names a
    # module-level or class attribute of a ``contrablock`` module; a deleted
    # or renamed function otherwise lingers in the prose
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    spans = (re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?", span)
             for span in re.findall(r"`([^`\n]+)`", readme))
    names = sorted({m[1] for m in spans if m and "_" in m[1]})
    assert len(names) >= 40
    modules = [contrablock] + [importlib.import_module(f"contrablock.{path.stem}")
                               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]

    def resolves(obj, name):
        for part in name.split("."):
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    missing = [name for name in names if not any(resolves(m, name) for m in modules)]
    assert not missing, "README names missing from the library: " + ", ".join(missing)
