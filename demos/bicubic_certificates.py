"""Packing certificates on bicubic graphs (connected, cubic, bipartite).

The pipeline: color the distance-2 graph of one side with Brooks' theorem,
take the largest color class as a packing P of that side (6|P| >= |side|),
extend it to a maximal packing, peel the P/Q/R/S/T/W layers that the
counting bound rho >= 7n/48 rests on, and finish with the combined packing
P union T.  Every step re-validates its own output.
"""

from gammarho.bicubic import (
    combined_packing,
    layer_decompose,
    maximal_packing_in,
    side_packing,
    validate_bicubic,
)
from gammarho.generators import enumerate_bicubic, gen_random_bicubic
from gammarho.graphs import is_packing
from gammarho.solvers import domination_number, packing_number

g = gen_random_bicubic(20, seed=11)
lab = validate_bicubic(g)
print(f"random bicubic graph: n = {g.n}, sides {len(lab.side_x)} + {len(lab.side_y)}")

p0 = side_packing(g, lab, lab.side_x)
print(f"side packing inside X: {list(p0)}   (6 * {len(p0)} >= {len(lab.side_x)})")

p = maximal_packing_in(g, lab.side_x, p0)
layers = layer_decompose(g, lab, p)
for tag in ("p", "q", "r", "s", "t", "w"):
    print(f"  {tag.upper()}: {list(getattr(layers, tag))}")

union = combined_packing(g, layers)
assert is_packing(g, union)
rho = packing_number(g).value
gamma = domination_number(g).value
print(f"combined packing P+T has size {len(union)}; exact rho = {rho}, "
      f"gamma = {gamma}")
assert 48 * rho >= 7 * g.n
assert 49 * gamma <= 120 * rho
print(f"bounds: 48 rho = {48 * rho} >= 7n = {7 * g.n}, "
      f"49 gamma = {49 * gamma} <= 120 rho = {120 * rho}")

# the small orders can be checked exhaustively instead
print("\nexhaustive check of every connected bicubic graph up to n = 16:")
for n in (6, 8, 10, 12, 14, 16):
    graphs = enumerate_bicubic(n)
    pairs = [(domination_number(h).value, packing_number(h).value)
             for h in graphs]
    assert all(gamma <= 2 * rho for gamma, rho in pairs)
    worst = max(pairs)
    print(f"  n = {n:>2}: {len(graphs)} graphs, all satisfy gamma <= 2 rho "
          f"(worst pair {worst})")
