"""Shared helpers: conversion to networkx, which the tests use as an
independent oracle for isomorphism and the graph6 codec, a reader for
the concatenated JSON bundles that `gammarho certify` prints, and a call
counter for the mop builds and the solves."""

import json
import sys
from collections import Counter

import networkx as nx

from gammarho.graphs import Graph


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def from_nx(G) -> Graph:
    relabel = {v: i for i, v in enumerate(sorted(G.nodes()))}
    return Graph.from_edges(
        G.number_of_nodes(),
        [(relabel[u], relabel[v]) for u, v in G.edges()],
    )


def json_bundles(text):
    decoder = json.JSONDecoder()
    pos, out = 0, []
    text = text.strip()
    while pos < len(text):
        obj, pos = decoder.raw_decode(text, pos)
        out.append(obj)
        pos = len(text) - len(text[pos:].lstrip())
    return out


# every build of a mop's certificate state, the pair solve, and the
# searches and one-quantity views that its walk replaces
MOP_BUILDS = ("recognize_mop", "build_dual", "build_clique_graph", "_walk",
              "tokunaga_color", "verify_tokunaga", "solve_pair",
              "domination_number", "packing_number", "_solve_gamma_component",
              "_solve_rho_component")


def count_calls(monkeypatch, names=MOP_BUILDS):
    """A Counter of calls to each named function of `triangulation`,
    `solvers` or `outerplanar`, wrapped in every module that looks it up
    by that name."""
    from gammarho import cli, harness, outerplanar, solvers, triangulation

    modules = (triangulation, solvers, outerplanar, harness, cli)
    counts = Counter()
    for name in names:
        original = next(getattr(mod, name) for mod in modules
                        if hasattr(mod, name))

        def wrapper(*args, _fn=original, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)
    return counts


def pytest_terminal_summary(terminalreporter):
    # capture hides per-test prints on success; re-emit the acceptance lines
    mod = sys.modules.get("test_acceptance")
    if mod is not None and mod.CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in mod.CRITERION_LINES:
            terminalreporter.write_line(line)
