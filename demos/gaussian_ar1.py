"""The Gaussian kernel and its AR(1) invariant chain.

Cells update to N((a+b)/m, sigma^2).  For |m| > 2 the invariant zigzag
chain is available in closed form, and read along the zigzag it is an AR(1)
process.  This script compares the closed forms with the finite solver's
nu/eta solves run on the grid kernel, checks the invariance conditions by
quadrature, and validates the AR(1) picture by simulation.
"""

import numpy as np

from zigzag_pca import continuous_kernels as ck
from zigzag_pca import finite_solver as fs
from zigzag_pca import simulator as sim
from zigzag_pca import stats as st


def main():
    par = ck.GaussianPcaParams(m=3.0, sigma=1.0)
    ar = ck.ar1_parameters(par)
    hz = ck.gaussian_invariant_hzmc(par)
    print("parameters m=3, sigma=1")
    print(f"  contraction l        = {par.contraction:.10f}")
    print(f"  ar(1) coefficient    = {ar.phi:.10f}")
    print(f"  innovation variance  = {ar.innovation_var:.10f}")
    print(f"  stationary variance  = {ar.stationary_var:.10f}")
    print(f"  stationary std       = {par.stationary_std:.10f}")

    grid = ck.default_gaussian_grid(par)
    kern = ck.gaussian_kernel_density(par)

    print("\nnu/eta solves on the grid kernel vs closed-form profiles (257-point grid):")
    gk = ck.GridKernel(kern, grid)
    i0 = int(np.argmin(np.abs(grid.points)))          # anchor at the node at 0
    nu = fs.solve_nu(gk)
    eta = fs.solve_eta(gk, fs.BaseTriple(i0, i0, i0), nu.vector)
    prof = ck.gaussian_closed_profiles(par)
    for name, got, closed in (("nu", nu, prof["nu"]), ("eta", eta, prof["eta"])):
        target = closed(grid.points)
        target /= grid.integrate(target)
        err = np.abs(got.vector / grid.weights - target).max()     # masses -> densities
        print(f"  max |{name}_grid - {name}_closed| = {err:.3e}")
    print(f"  eta eigenvalue {eta.eigenvalue:.10f} "
          f"(closed form 2(l-1)/l = {ck.gaussian_eta_eigenvalue(par):.10f})")

    print("\nquadrature residuals of the invariance conditions:")
    for rep in ck.quadrature_check_conditions(kern, hz, grid):
        print(" ", rep)

    print("\nsimulation: one synchronous step from a sampled chain line")
    width = 100_000
    zig = sim.sample_hzmc_lines(hz, 2 * width + 1, 1, seed=42)[0]
    y = zig[1::2]
    model = sim.ModelInstance(kernel=kern, lattice="N", seed=42)
    z = sim.step_pca(y, model)
    new_zig = np.empty(2 * (width - 1) + 1)
    new_zig[0::2] = y[:width]
    new_zig[1::2] = z
    s_line = st.summarize_line(z)
    s_zig = st.summarize_line(new_zig)
    print(f"  stepped-line variance  {s_line.variance:.5f} "
          f"(predicted {ar.stationary_var:.5f}, se {s_line.se_variance:.5f})")
    print(f"  zigzag lag-1 autocorr  {s_zig.autocorr[0]:.5f} "
          f"(predicted {ar.phi:.5f}, se {s_zig.se_autocorr[0]:.5f})")

    print("\nthe kernel with the diagonal overridden to a point mass is")
    print("indistinguishable from a continuous start (same seed, 100 steps):")
    w2 = 164
    init = sim.sample_hzmc_lines(hz, 2 * w2 - 1, 1, seed=7)[0][0::2]
    mg = sim.ModelInstance(kernel=kern, lattice="N", seed=7)
    md = sim.ModelInstance(kernel=ck.gaussian_diag_kernel_density(par), lattice="N", seed=7)
    same = np.array_equal(sim.simulate_diagram(mg, init, 100).states,
                          sim.simulate_diagram(md, init, 100).states, equal_nan=True)
    print("  bitwise identical diagrams:", same)


if __name__ == "__main__":
    main()
