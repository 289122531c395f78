"""The package top exports the listing API; primitives live in their modules."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import cliquestream as cs

LISTING_API = {
    "list_mc",
    "run_strict",
    "step_events",
    "StepEvent",
    "CLIQUE_COLLECTED",
    "BATCH_COMPLETED",
    "TRAVERSAL_ENDED",
    "TraversalStats",
    "OpCounter",
    "DelayConfig",
    "Emission",
    "StrictRunReport",
    "Graph",
    "VertexSet",
}

# primitives reached by tests and demos, each imported from its module
MODULE_ONLY = {
    "kernels": [
        "ChildSpec",
        "build_batch_matrices",
        "children_batch",
        "children_naive",
        "filter_children",
        "good_table_bitset",
        "good_table_rectangular",
    ],
    "rs_tree": [
        "child",
        "clique_index",
        "is_maximal_clique",
        "lex_completion",
        "parent",
        "root",
    ],
    "graph": ["sort_lex_descending"],
}


def test_all_is_the_listing_api():
    assert len(cs.__all__) == len(set(cs.__all__)) == 14
    assert set(cs.__all__) == LISTING_API


def test_every_export_resolves():
    namespace = {}
    exec("from cliquestream import *", namespace)
    assert LISTING_API <= namespace.keys()
    for name in LISTING_API:
        assert namespace[name] is getattr(cs, name)


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in MODULE_ONLY.items() for n in names]
)
def test_primitive_importable_from_its_module(module, name):
    assert name not in cs.__all__
    assert callable(getattr(importlib.import_module(f"cliquestream.{module}"), name))


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cliquestream"


def _lines(node) -> set[int]:
    """0-based line numbers of a definition, its decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return set(range(first - 1, node.end_lineno))


def test_every_public_definition_has_a_user():
    """Each public top-level def or class in the package is named, as a whole
    word, by the package, ``bench/`` or ``demos/`` outside its own body, and
    each public method of a package class is read as an attribute
    (``.name``) outside its own body.  A body counts only once its own name
    does, so helpers that serve nothing but each other stay unused; tests do
    not count as users."""
    roots = [
        p.read_text()
        for d in ("bench", "demos")
        for p in (ROOT / d).rglob("*.py")
        if not p.name.startswith("test_")
    ]
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    bodies = {}  # name -> [pattern, source of its definitions]
    for path in PACKAGE.glob("*.py"):
        text = path.read_text()
        lines = text.splitlines()
        cut = set()
        defs = []  # (name, pattern, span) of each definition in this file
        for node in ast.parse(text).body:
            if isinstance(node, funcs + (ast.ClassDef,)):
                span = _lines(node)
                cut |= span
                if isinstance(node, ast.ClassDef):
                    for m in node.body:
                        if isinstance(m, funcs) and not m.name.startswith("_"):
                            defs.append((f"{node.name}.{m.name}", rf"\.{m.name}\b", _lines(m)))
                            span -= _lines(m)
                defs.append((node.name, rf"\b{node.name}\b", span))
        for name, pattern, span in defs:
            entry = bodies.setdefault(name, [pattern, ""])
            entry[1] += "\n" + "\n".join(lines[i] for i in sorted(span))
        roots.append("\n".join(l for i, l in enumerate(lines) if i not in cut))
    used, todo = set(), list(roots)
    while todo:
        text = todo.pop()
        for name in bodies.keys() - used:
            if re.search(bodies[name][0], text):
                used.add(name)
                todo.append(bodies[name][1])
    unused = sorted(n for n in bodies.keys() - used if not n.startswith("_"))
    assert not unused, f"public names that only tests use: {unused}"
