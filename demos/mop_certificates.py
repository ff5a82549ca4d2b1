"""Structure of maximal outerplanar graphs: triangulation, dual tree,
clique graph, the four-coloring, and the transfer of dominating sets and
packings between a mop and its clique graph.

The recognition step is certifying: it rebuilds the boundary polygon by
re-inserting clipped ears, so a non-outerplanar input cannot slip through.
"""

from gammarho.generators import gen_random_mop
from gammarho.graphs import is_dominating, is_packing
from gammarho.outerplanar import (
    averaged_dominating,
    lift_packing,
    low_degree_count,
    project_dominating,
    recognize_mop,
    tokunaga_color,
    verify_tokunaga,
)
from gammarho.solvers import domination_number, packing_number

g = gen_random_mop(14, seed=5)
t = recognize_mop(g)
print(f"mop on n = {g.n}: boundary {list(t.boundary)}")
print(f"{len(t.triangles)} triangles: {[list(x) for x in t.triangles]}")

# the triangulation builds its dual tree and clique graph once and keeps them
cg = t.clique_graph
print(f"dual tree edges: {sorted(t.dual.shared)}")
print(f"clique graph: {cg.n} nodes, {cg.m} edges (dual is a subgraph)")

colors = tokunaga_color(t)
assert verify_tokunaga(t, colors) == []
print(f"4-coloring (every edge-sharing triangle pair sees all colors): {list(colors)}")

# gamma equals rho on the clique graph; both transfer back to the mop
cg_gamma = domination_number(cg)
cg_rho = packing_number(cg)
assert cg_gamma.value == cg_rho.value
print(f"clique graph: gamma = rho = {cg_rho.value}")

projected = project_dominating(t, cg_gamma.witness)
assert is_dominating(g, projected)
print(f"projected dominating set (union of chosen triangles): {list(projected)}")

averaged = averaged_dominating(t, projected)
tc = low_degree_count(g)
assert is_dominating(g, averaged)
assert 4 * len(averaged) <= 3 * len(projected) + tc
print(f"averaged dominating set: {list(averaged)} "
      f"(4*{len(averaged)} <= 3*{len(projected)} + t={tc})")

lifted = lift_packing(t, cg_rho.witness)
assert is_packing(g, lifted)
assert len(lifted) == cg_rho.value
print(f"lifted packing of the same size: {list(lifted)}")

gamma = domination_number(g).value
rho = packing_number(g).value
print(f"exact values: gamma = {gamma}, rho = {rho}; "
      f"gamma <= 3 rho and 4 gamma <= 9 rho + t both hold")
assert gamma <= 3 * rho and 4 * gamma <= 9 * rho + tc
