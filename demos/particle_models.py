"""Particle models in the zoo: exclusion dynamics and min-plus growth.

Both fit the two-neighbor synchronous template but sit outside the scope of
the invariance theory (their kernels are atomic and not positive with
respect to any usable line measure), so this script only exercises their
structural invariants: spacing preservation and the frozen configuration
for the exclusion process, monotonicity and the minimum-of-two mean for the
growth recursion.
"""

import numpy as np

from zigzag_pca import simulator as sim
from zigzag_pca import stats as st


def exclusion():
    print("exclusion process: radius r=0.5, hop v=1, move probability p=0.6")
    rng = np.random.default_rng(3)
    gaps = 1.0 + rng.exponential(1.0, size=800)
    x = np.cumsum(gaps)
    model = sim.ModelInstance(kernel=sim.TasepRule(r=0.5, v=1.0, p=0.6), lattice="Z", seed=17)
    moved = []
    for t in range(30):
        # the rightmost particle drops out: its update needs an unknown neighbor
        new = sim.step_pca(x, model, t)
        moved.append(float(np.mean(new != x[:-1])))
        x = new
        assert np.all(x[:-1] + 1.0 <= x[1:])
    print(f"  30 steps, spacing >= 2r after every step; "
          f"mean move fraction {np.mean(moved):.3f}")

    r = 0.5
    frozen = 2 * r * np.arange(30)
    model = sim.ModelInstance(kernel=sim.TasepRule(r=r, v=4 * r, p=1.0), lattice="Z", seed=5)
    diag = sim.simulate_diagram(model, frozen, 10)
    constant = all(np.array_equal(diag.row(t), frozen[: 30 - t]) for t in range(11))
    print(f"  packed configuration at spacing 2r with v a multiple of 2r: "
          f"diagram constant = {constant}")


def growth():
    print("\nmin-plus growth with exponential edge weights")
    row = np.zeros(20_001)
    law = sim.WeightLaw("exp", (1.0,))
    step = sim.ModelInstance(kernel=sim.FppRule(law), lattice="N", seed=2)
    out = sim.step_pca(row, step)
    s = st.summarize_line(out)
    print(f"  one step from the zero row: mean {s.mean:.4f} "
          f"(minimum of two unit exponentials has mean 0.5)")

    model = sim.ModelInstance(kernel=sim.FppRule(law), lattice="N", seed=9)
    diag = sim.simulate_diagram(model, np.zeros(2_001), 600)
    fronts = [float(np.mean(diag.row(t))) for t in (200, 400, 600)]
    speeds = np.diff([0.0] + fronts) / 200
    print(f"  front position grows linearly: mean travel time at t=200/400/600 "
          f"= {fronts[0]:.2f}/{fronts[1]:.2f}/{fronts[2]:.2f}")
    print(f"  per-step increments {speeds[1]:.4f}, {speeds[2]:.4f} (stabilizing)")

    shifted = sim.step_pca(row + 3.0, step)
    print(f"  shift covariance: max |step(row+3) - (step(row)+3)| = "
          f"{np.abs(shifted - (out + 3.0)).max():.1e}")


if __name__ == "__main__":
    exclusion()
    growth()
