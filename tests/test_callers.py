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
