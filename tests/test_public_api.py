"""The package top exports the listing API; primitives live in their modules."""

import importlib

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
    "ChildSpec",
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
    "graph": ["lex_compare", "sort_lex_descending"],
}


def test_all_is_the_listing_api():
    assert len(cs.__all__) == len(set(cs.__all__)) == 15
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
