"""gamma <= 2 rho on biconvex graphs, certified without solving.

A biconvex graph carries vertex orderings making every neighborhood an
interval.  After trimming the flanks, the core splits into consecutive
complete bipartite blocks K_1..K_k with one-sided leftover sets J_i.  From
that shape alone the constructors emit a packing of size k or k + 1 and a
dominating set of size at most 2k or 2k + 2, always with |D| <= 2|P|, which
sandwiches gamma <= 2 rho.  The exact solver then confirms the sandwich.
"""

from gammarho.biconvex import (
    cb_decompose,
    certify_biconvex,
    construct_dominating,
    construct_packing,
    trim_core,
)
from gammarho.generators import gen_random_biconvex, gen_tight_family
from gammarho.solvers import domination_number, packing_number

g, ordering = gen_random_biconvex(7, 6, seed=32)
core = trim_core(g, ordering)
decomp = cb_decompose(g, core)
print(f"biconvex graph n = {g.n}; x order {list(ordering.x_order)}"
      f"{' reversed' if core.x_reversed else ''}")
print(f"trimmed flanks: left {list(core.trimmed_left)}, "
      f"right {list(core.trimmed_right)}")
for i, blk in enumerate(decomp.blocks):
    j = decomp.j_sets[i]
    tail = f"  J = {list(j)} ({decomp.j_sides[i]} side)" if j else ""
    print(f"  K_{i + 1}: X = {list(blk.x_side)}, Y = {list(blk.y_side)}{tail}")

pack = construct_packing(g, decomp)
dom = construct_dominating(g, decomp)
k = decomp.width
print(f"packing certificate ({pack.method}): {list(pack.vertices)}, "
      f"size {len(pack.vertices)} with width k = {k}")
print(f"dominating certificate ({dom.method}): {list(dom.vertices)}, "
      f"size {len(dom.vertices)} <= 2 * {len(pack.vertices)}")

gamma = domination_number(g).value
rho = packing_number(g).value
print(f"exact: gamma = {gamma}, rho = {rho}; certified "
      f"{len(pack.vertices)} <= rho and gamma <= {len(dom.vertices)}")

# the bound is tight: k disjoint 4-cycles need 2k dominators but
# pack only one vertex per block
for kk in (1, 3, 6):
    tg, tight_ordering = gen_tight_family(kk)
    tg_gamma = domination_number(tg).value
    tg_rho = packing_number(tg).value
    assert tg_gamma == 2 * kk and tg_rho == kk
    print(f"tight family k = {kk}: gamma = {tg_gamma} = 2 rho = 2 * {tg_rho}")

# one call builds the same certificates and plays all three records;
# `gammarho certify --class biconvex` prints exactly these
certs, records = certify_biconvex(g, ordering, "demo")
assert certs["width"] == k
assert certs["packing"]["vertices"] == list(pack.vertices)
assert certs["dominating"]["vertices"] == list(dom.vertices)
for record in records:
    print(f"record {record.check}: holds = {record.holds}")
