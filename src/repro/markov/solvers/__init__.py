"""Stationary-distribution solvers.

The paper surveys "a variety of standard iterative techniques" before
introducing its multi-level method; this subpackage implements those
baselines (power iteration, Gauss-Jacobi, Gauss-Seidel, Krylov, direct
sparse LU) behind a common :class:`~repro.markov.solvers.result.StationaryResult`
interface, so the benchmark harness can compare them head-to-head with the
multigrid solver of :mod:`repro.markov.multigrid`.
"""

from repro.markov.solvers.result import StationaryResult
from repro.markov.solvers.direct import DirectPlan, solve_direct
from repro.markov.solvers.power import solve_power
from repro.markov.solvers.jacobi import solve_jacobi
from repro.markov.solvers.gauss_seidel import solve_gauss_seidel
from repro.markov.solvers.krylov import solve_krylov
from repro.markov.solvers.sor import solve_sor
from repro.markov.solvers.eigen import solve_eigen, subdominant_eigenvalue

__all__ = [
    "StationaryResult",
    "DirectPlan",
    "solve_direct",
    "solve_power",
    "solve_jacobi",
    "solve_gauss_seidel",
    "solve_krylov",
    "solve_sor",
    "solve_eigen",
    "subdominant_eigenvalue",
]
