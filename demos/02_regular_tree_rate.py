"""The cubic tree-with-leaf-path construction and its rate quotient.

For m = 2^d agents the construction gives a 3-regular graph; with weight 1/4
on the diagonal and every edge the matrices are doubly stochastic with
beta = 1/4.  The engine certifies with the BFS-tree depth p* from the
smallest-index root (node 0), which is at most d = log2 m, so the certified
quotient 1 - 1/(4^3 m p*) scales like 1 - O(1/(m log m)).  It beats the
doubly-stochastic baseline 1 - beta/(2 m^2) once m > 8 p*.

No cubic graph on 2^d nodes has radius below k_min(d) = min{k : 1 +
3(2^k - 1) >= 2^d} (a degree-3 ball of radius k holds at most that many
nodes); the construction's radius, reached at the binary-tree root, meets it.
"""
import numpy as np

from consensus_lab import (GraphSequence, MatrixSequence, bfs_spanning_tree,
                           doubly_stochastic_rate_factor, rate_quotient, regular_tree_graph,
                           verify_compliance)

print(f"{'d':>2} {'m':>3} {'3-regular':>9} {'p*':>3} {'radius':>6} {'k_min':>5} "
      f"{'q (certified)':>14} {'baseline':>12} {'winner':>9}")
for d in range(2, 7):
    g = regular_tree_graph(d)
    m = 2 ** d
    a = g.adjacency
    regular = bool(np.array_equal(a, a.T) and (a.sum(axis=1) == 3).all())
    seq = MatrixSequence.from_scheme(GraphSequence.static(g), "quarter")
    comp = verify_compliance(seq, 1)
    p_star = comp.p_star
    radius = min(bfs_spanning_tree(g, v).depth for v in range(m))
    k_min = next(k for k in range(m) if 1 + 3 * (2 ** k - 1) >= m)
    # the uniform adjoint of a doubly stochastic sequence has delta = 1/m
    q = rate_quotient(1 / m, comp.beta, p_star)
    baseline = doubly_stochastic_rate_factor(0.25, m, 1)
    winner = "tree" if q < baseline else "baseline"
    print(f"{d:>2} {m:>3} {str(regular):>9} {p_star:>3} {radius:>6} {k_min:>5} "
          f"{q:>14.10f} {baseline:>12.10f} {winner:>9}")

print()
print("note: p* <= d = log2 m, so the certified quotient is at most")
print("1 - 1/(4^3 m log2 m); the tree wins once m > 8 p* (d = 6 here).  The")
print("radius equals k_min(d), the least radius any cubic graph on 2^d nodes")
print("can have, so no relabelling of the root makes p* fall below k_min(d).")
print()

d = 3
seq = MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(d)), "quarter")
comp = verify_compliance(seq, 1)
print(f"d={d}: compliance level={comp.level}, beta={comp.beta}, "
      f"doubly stochastic={comp.doubly_stochastic}, p*={comp.p_star}")

rng = np.random.default_rng(1)
m = 2 ** d
x = rng.uniform(-1, 1, m)
mean0 = x.mean()
err0 = float(((x - mean0) ** 2).sum())
a = seq.matrix_at(0)
q = rate_quotient(1 / m, comp.beta, comp.p_star)
print(f"\nempirical squared error against the certified envelope q^t * err(0):")
for t in range(1, 101):
    x = a @ x
    if t in (1, 2, 5, 10, 25, 50, 100):
        err = float(((x - mean0) ** 2).sum())
        print(f"  t={t:3d}  err={err:.3e}  envelope={q ** t * err0:.3e}  "
              f"ok={err <= q ** t * err0}")
