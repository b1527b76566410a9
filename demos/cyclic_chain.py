"""Cyclic lattices: partition constant, joint law, cyclic oracle.

On a cycle of 2n cells the invariant object is a normalized product measure
with partition constant Z = trace((du)^n).  Factorization plus equality of
the du and ud products around the cycle characterize invariance, checked
here both ways on the two-letter chain, with a non-commuting pair as the
negative control.
"""

import numpy as np

from zigzag_pca import lattice_ext as lx
from zigzag_pca.core_types import TransitionTensor, normalize_rows


def build_three_letter():
    t = np.zeros((3, 3, 3))
    for i in range(3):
        t[0, i, i] = 1.0
        t[i, 0, i] = 1.0
    t[1, 1, 1] = t[1, 1, 2] = t[2, 2, 1] = t[2, 2, 2] = 0.5
    t[1, 2, 1] = t[2, 1, 2] = 0.8
    t[1, 2, 2] = t[2, 1, 1] = 0.2
    return TransitionTensor(t)


def main():
    sub = build_three_letter().restrict([1, 2])
    n = 3
    res = lx.solve_chzmc(sub, n)
    print(f"two-letter chain on a cycle of 2n = {2 * n} cells")
    print(f"  partition constant Z = {res.spec.z:.12f} (= trace((du)^{n}))")
    for rep in res.reports:
        print(" ", rep)

    law = lx.chzmc_density(res.spec)
    print(f"  joint law entries: {law.size}, total mass {law.sum():.12f}")
    # axes run x0, y0, x1, y1, ...: the first line's marginal sums out the y axes
    print("  first-line marginal:\n", law.sum(axis=tuple(range(1, 2 * n, 2))))

    print("\ncyclic conditions and oracle:")
    r9, r10 = lx.check_chzmc_conditions(sub, res.spec)
    print(" ", r9)
    print(" ", r10)
    print(" ", lx.bruteforce_cycle_invariance(sub, res.spec))

    print("\nnegative control: independent random steps do not commute")
    rng = np.random.default_rng(55)
    d = rng.uniform(0.1, 1.0, (2, 2))
    d /= d.sum(axis=1, keepdims=True)
    u = rng.uniform(0.1, 1.0, (2, 2))
    u /= u.sum(axis=1, keepdims=True)
    du = d @ u
    t_bad, _ = normalize_rows(d[:, None, :] * u.T[None, :, :] / du[:, :, None])
    tens_bad = TransitionTensor(t_bad)
    spec_bad = lx.ChzmcSpec(d=d, u=u, n=2, z=lx.partition_function(d, u, 2))
    _, r10_bad = lx.check_chzmc_conditions(tens_bad, spec_bad)
    print(" ", r10_bad)
    print(" ", lx.bruteforce_cycle_invariance(tens_bad, spec_bad))

    print("\ntrace cyclicity sanity: Z(d,u,n) == Z(u,d,n)")
    for m in (1, 2, 4):
        za = lx.partition_function(d, u, m)
        zb = lx.partition_function(u, d, m)
        print(f"  n={m}: {za:.12f} vs {zb:.12f}")


if __name__ == "__main__":
    main()
