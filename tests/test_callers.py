"""Dead-code guard: every public top-level function and class of the package
has a caller in the package (another module, or other code of its own
module), or is an entry point in pyproject.toml's [project.scripts]."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "afgeo"
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"

# Monitors only the tests call (ROADMAP item 5).  This list may only shrink:
# a monitor leaves it when a module calls it, or when it is deleted.
TEST_ONLY = {"cutoff_report", "gronwall_check", "rneg_monitor",
             "l1_tail_monitor", "boundary_gradient_monitor",
             "weighted_decay_monitor"}


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}


def _public(tree):
    """The module's public top-level definitions, by name."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _names(*nodes):
    """Every name and attribute the nodes read or import."""
    used = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _entry_points():
    """The function names [project.scripts] points at."""
    scripts = PYPROJECT.read_text().split("[project.scripts]")[1]
    return set(re.findall(r'^\w[\w-]* = "[\w.]+:(\w+)"',
                          scripts.split("\n[")[0], re.M))


def test_every_public_definition_has_a_caller():
    trees = _modules()
    unused = []
    for mod, tree in sorted(trees.items()):
        if mod == "oracle":  # the independent cross-checks: tests read them
            continue
        elsewhere = _names(*(t for m, t in trees.items() if m != mod))
        for name, node in _public(tree).items():
            # its own module counts too, outside its own definition
            here = _names(*(n for n in tree.body if n is not node))
            if name not in elsewhere | here | _entry_points() | TEST_ONLY:
                unused.append(f"{mod}.{name}")
    assert not unused, f"no caller in the package: {unused}"


def test_allow_list_names_live_test_only_monitors():
    # a monitor that was deleted, or that gained a caller, leaves the list
    trees = _modules()
    defined = set().union(*(_public(t) for t in trees.values()))
    assert TEST_ONLY <= defined
    assert not TEST_ONLY & _names(*trees.values())
    assert _entry_points() == {"main"}


# Parameters with a default that only the tests set.  This list may only
# shrink: cli.run's argv is the tests' entry point.
SET_BY_TESTS = {"run": {"argv"}}


def _calls(trees, classes):
    """Every call in the package, by the name it calls; a call of a package
    class, or of `cls` inside one, by `Class.__init__`."""
    calls = {}

    def visit(node, owner):
        owner = node.name if isinstance(node, ast.ClassDef) else owner
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "cls" or name in classes:
                name = f"{owner if name == 'cls' else name}.__init__"
            calls.setdefault(name, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for tree in trees.values():
        visit(tree, None)
    return calls


def _passes(call, index, name):
    """Whether `call` sets the parameter at positional `index` (None for a
    keyword-only one) called `name`, by position or by keyword."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return index is not None
    return (any(k.arg in (name, None) for k in call.keywords)
            or index is not None and len(call.args) > index)


def _defaults(fn, bound):
    """(positional index, name) of each parameter of fn with a default;
    a bound method's index leaves out self or cls."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    return ([(i - bound, p.arg) for i, p in enumerate(pos) if i >= first]
            + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None])


def _public_functions(trees):
    """(qualified name, call name, def, bound) of every public function and
    method, dunder methods included, outside oracle.py."""
    for mod, tree in sorted(trees.items()):
        if mod == "oracle":
            continue
        for name, node in _public(tree).items():
            if isinstance(node, ast.FunctionDef):
                yield f"{mod}.{name}", name, node, 0
                continue
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name[0] == "_" and fn.name[-2:] != "__"):
                    continue
                static = any(getattr(d, "id", "") == "staticmethod"
                             for d in fn.decorator_list)
                key = f"{name}.__init__" if fn.name == "__init__" else fn.name
                yield f"{mod}.{name}.{fn.name}", key, fn, 1 - static


def test_every_default_is_set_by_some_call():
    # a default no call in the package overrides is a constant in disguise
    trees = _modules()
    classes = {n for t in trees.values() for n, node in _public(t).items()
               if isinstance(node, ast.ClassDef)}
    calls = _calls(trees, classes)
    unset = [f"{qual}({name})"
             for qual, key, fn, bound in _public_functions(trees)
             for index, name in _defaults(fn, bound)
             if name not in SET_BY_TESTS.get(key, ())
             and not any(_passes(c, index, name) for c in calls.get(key, ()))]
    assert not unset, f"defaults no package call sets: {unset}"
