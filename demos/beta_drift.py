"""The Beta kernel: factorization without stationarity.

The kernel places the child at a Beta(alpha, beta) fraction between its
neighbors, shifted left by m.  Shifted-Gamma candidate steps satisfy the
factorization and commutation identities exactly, but every down-up step
drifts by (alpha + beta)/theta, so no initial density is stationary and no
invariant chain exists on the line.  The push-forward of a candidate chain
is still describable: it is the same chain with the initial law advanced by
one down step.  At site 2 of the second line that chain is a sum of
independent Gamma steps at rate theta, Gamma(5 alpha + 2 beta, theta)
shifted by -2m, which a Kolmogorov-Smirnov test confirms here.
"""

import numpy as np
from scipy.special import gammainc

from zigzag_pca import continuous_kernels as ck
from zigzag_pca import simulator as sim
from zigzag_pca import stats as st


def main():
    par = ck.BetaPcaParams(alpha=1.0, beta=1.0, m=1.0, theta=1.0)
    kern = ck.beta_kernel_density(par)
    hz = ck.beta_candidate_hzmc(par)
    grid = ck.default_beta_grid(par)
    print(f"beta kernel alpha=1 beta=1 m=1 theta=1; drift per down-up step = "
          f"{par.drift_per_step:g}")

    print("\nquadrature residuals with the shifted-Gamma candidates:")
    for rep in ck.quadrature_check_conditions(kern, hz, grid, tol=1e-5):
        print(" ", rep)
    print("  factorization and commutation hold; stationarity cannot")

    print("\nempirical drift of the candidate chain's first line:")
    zig = sim.sample_hzmc_lines(hz, 2 * 2000 + 1, 1, seed=5)[0]
    x = zig[0::2]
    steps = np.diff(x)
    s = st.summarize_line(steps)
    print(f"  mean step {s.mean:.4f} (predicted {par.drift_per_step:g}, "
          f"se {s.se_mean:.4f})")

    print("\nimage property: one synchronous step advances the initial law by")
    print("one down step and keeps the step kernels")
    n_rep, w, site = 20_000, 7, 2
    lines = sim.sample_hzmc_lines(hz, 2 * w + 1, n_rep, seed=11)
    y = lines[:, 1::2]
    rng = np.random.Generator(np.random.Philox(key=12))
    z = kern.sampler(y[:, :-1], y[:, 1:], rng.random((n_rep, w - 1)))

    # the advanced chain: rho0, one extra down step, then down, up, down, up,
    # down to y2: five Gamma(alpha) steps, two Gamma(beta) steps, shift -2m
    shape, shift = 5 * par.alpha + 2 * par.beta, -2 * par.m
    res = st.ks_distance(z[:, site],
                         lambda x: gammainc(shape, par.theta * np.maximum(x - shift, 0.0)))
    print(f"  KS distance {res.distance:.4f} to Gamma({shape:g}, {par.theta:g}) shifted by "
          f"{shift:g} vs threshold {res.threshold:.4f} -> "
          f"{'same law' if res.passed else 'different laws'}")


if __name__ == "__main__":
    main()
