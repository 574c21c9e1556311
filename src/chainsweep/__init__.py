"""Transfer-matrix analysis of spin chains built by one two-qubit-gate sweep.

A single sweep of a nearest-neighbor unitary over a qubit chain produces a
bond-dimension-2 matrix product state whose correlators close in terms of a
4x4 transfer matrix.  This package computes those correlators exactly at any
chain length, classifies which gates generate macroscopic superpositions,
quantifies collective spin squeezing and entanglement depth, and checks
everything against a brute-force state-vector simulation at small N.
"""

from .errors import ConvergenceError, InputError, ToleranceError
from .gates import (Gate, conjugated_gate, controlled_rotation, gate_from_family,
                    identity_gate, load_gate, macroscopic_family, random_gate,
                    save_gate, squeezing_gate, weyl_gate, weyl_params)
from .transfer import (ChainSpec, KrausPair, LocalObservable, SpectralData,
                       TransferSet, SIGMA_X, SIGMA_Y, SIGMA_Z, boundary_row,
                       build_transfer, check_isometry, dressed_E,
                       extract_kraus, site_density_recursion, spectral,
                       transfer_E)
from .correlators import (AsymptoticVariance, VarianceBreakdown,
                          additive_variance_exact, asymptotic_variance,
                          collective_mean, one_point, site_correlations,
                          two_point)
from .macroscopicity import (MacroClassification, MacroReport,
                             classify_macroscopic, neff, neff_optimize,
                             variance_sweep)
from .squeezing import (BoundCurve, fig4_curve, mean_z, optimal_theta,
                        sm_bound, transverse_variance, xi_squared)
from .oracle import (StateVector, collective_mean as oracle_collective_mean,
                     collective_variance, expect_local, expect_pair,
                     reduced_density, sweep)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "InputError", "ToleranceError",
    "Gate", "conjugated_gate", "controlled_rotation", "gate_from_family",
    "identity_gate", "load_gate", "macroscopic_family", "random_gate",
    "save_gate", "squeezing_gate", "weyl_gate", "weyl_params",
    "ChainSpec", "KrausPair", "LocalObservable", "SpectralData", "TransferSet",
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "boundary_row", "build_transfer",
    "check_isometry", "dressed_E", "extract_kraus",
    "site_density_recursion", "spectral", "transfer_E",
    "AsymptoticVariance", "VarianceBreakdown", "additive_variance_exact",
    "asymptotic_variance", "collective_mean", "one_point", "site_correlations",
    "two_point",
    "MacroClassification", "MacroReport", "classify_macroscopic", "neff",
    "neff_optimize", "variance_sweep",
    "BoundCurve", "fig4_curve", "mean_z", "optimal_theta", "sm_bound",
    "transverse_variance", "xi_squared",
    "StateVector", "oracle_collective_mean", "collective_variance",
    "expect_local", "expect_pair", "reduced_density", "sweep",
]
