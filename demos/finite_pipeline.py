"""Walk the full finite-alphabet pipeline on a three-letter chain.

The kernel has an absorbing letter 0 and an everywhere-positive block on
{1, 2}.  Restricted to that block the construction succeeds and every
quantity comes out as a small fraction; the push-forward oracle then
confirms invariance with no reference to the construction.
"""

import numpy as np

from zigzag_pca import finite_solver as fs
from zigzag_pca.core_types import TransitionTensor


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
    full = build_three_letter()
    print("full 3-letter kernel: everywhere positive?", full.mu_positive)
    print("  -> letter 0 is absorbing; the positive route needs a positive block\n")

    sub = full.restrict([1, 2])
    print("restricted to {1, 2}: everywhere positive?", sub.mu_positive)

    res = fs.solve_invariant_hzmc(sub)
    print("\nanchor triple:", res.triple)
    print("diagonal profile nu :", res.nu.vector, " (expect 1/2, 1/2)")
    print("weight profile  eta :", res.eta.vector, " (expect 1/3, 2/3)")
    print("down kernel d:\n", res.spec.d, " (expect rows 2/3,1/3 | 1/3,2/3)")
    print("up kernel   u:\n", res.spec.u, " (expect rows 1/3,2/3 | 2/3,1/3)")
    print("initial law rho0:", res.spec.rho0, " (expect 1/2, 1/2)")

    print("\ncondition reports:")
    for rep in res.reports:
        print(" ", rep)

    print("\nindependent oracle (exhaustive push-forward, windows up to k=3):")
    print(" ", fs.bruteforce_invariance(sub, res.spec, 3))

    print("\nthe absorbing view: restricted to {0} the constant chain is invariant")
    zero = full.restrict([0])
    res0 = fs.solve_invariant_hzmc(zero)
    rep0 = fs.bruteforce_invariance(zero, res0.spec, 3)
    print("  constant-chain oracle residual:", rep0.residual)

    print("\na generic positive kernel fails both the conditions and the oracle:")
    rnd = fs.random_positive_tensor(3, 13)
    res_r = fs.solve_invariant_hzmc(rnd)
    print("  quartic-identity residual:", f"{res_r.reports[0].residual:.3e}")
    print(" ", fs.bruteforce_invariance(rnd, res_r.spec, 2))


if __name__ == "__main__":
    main()
