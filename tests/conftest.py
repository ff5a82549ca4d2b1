"""Shared helpers: conversion to networkx, which the tests use as an
independent oracle for isomorphism and the graph6 codec, and a reader for
the concatenated JSON bundles that `gammarho certify` prints."""

import json
import sys

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


def pytest_terminal_summary(terminalreporter):
    # capture hides per-test prints on success; re-emit the acceptance lines
    mod = sys.modules.get("test_acceptance")
    if mod is not None and mod.CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in mod.CRITERION_LINES:
            terminalreporter.write_line(line)
