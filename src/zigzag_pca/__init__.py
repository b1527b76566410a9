"""Invariant zigzag Markov chains for two-neighbor probabilistic cellular automata.

Subpackages by concern:

* ``core_types``          shared vocabulary (grids, kernels, chain specs, reports)
* ``finite_solver``       exact decision/construction on finite alphabets
* ``lattice_ext``         two-sided and cyclic lattices, partition functions
* ``continuous_kernels``  Gaussian and Beta families, quadrature checks
* ``simulator``           synchronous space-time simulation and diagram files
* ``stats``               empirical summaries and distribution tests
* ``cli``                 check / solve / verify / simulate commands
"""

from . import (continuous_kernels, core_types, finite_solver, lattice_ext,
               simulator, stats)

__all__ = ["continuous_kernels", "core_types", "finite_solver", "lattice_ext",
           "simulator", "stats"]
__version__ = "0.1.0"
