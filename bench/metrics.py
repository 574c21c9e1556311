"""Metric names, units and directions, and the functions a traced run wraps.

BENCHMARK.json at the repository root lists the same names and units (a test
in bench/tests keeps the two in step) and adds the regression bounds.
"""

from __future__ import annotations

# name -> (unit, better); reported with --trace 0
END_TO_END = {
    "wall_rel": ("ratio", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "correct_digits": ("digits", "higher"),
}

# name -> (unit, better); reported with --trace 1.  run.py computes
# squeezing.sm_bound.digits, cli.overhead_ms, trace.overhead_ms and
# runtime_warnings itself; tracing.layer_value computes the rest.
PER_LAYER = {
    "transfer.spectral.calls": ("count", "lower"),
    "transfer.spectral.ms": ("ms", "lower"),
    "transfer.spectral.self_ms": ("ms", "lower"),
    "transfer.spectral.us_p50": ("us", "lower"),
    "transfer.spectral.warnings": ("count", "lower"),
    "densemat.eig_general.calls": ("count", "lower"),
    "densemat.eig_general.us_p50": ("us", "lower"),
    "densemat.hermitian_eig.calls": ("count", "lower"),
    "densemat.matpow.calls": ("count", "lower"),
    "densemat.matpow.us_p50": ("us", "lower"),
    "correlators.additive_variance_exact.calls": ("count", "lower"),
    "correlators.additive_variance_exact.ms": ("ms", "lower"),
    "correlators.additive_variance_exact.sites_per_s": ("1/s", "higher"),
    "correlators.collective_mean.ms": ("ms", "lower"),
    "correlators.collective_mean.sites_per_s": ("1/s", "higher"),
    "correlators.one_point.us_p50": ("us", "lower"),
    "correlators.two_point.us_p50": ("us", "lower"),
    "correlators.asymptotic_variance.calls": ("count", "lower"),
    "correlators.asymptotic_variance.us_p50": ("us", "lower"),
    "macroscopicity.variance_sweep.ms": ("ms", "lower"),
    "macroscopicity.neff_optimize.ms": ("ms", "lower"),
    "macroscopicity.neff_optimize.self_ms": ("ms", "lower"),
    "macroscopicity.neff_optimize.us_p50": ("us", "lower"),
    "macroscopicity.neff_optimize.warnings": ("count", "lower"),
    "macroscopicity.classify_macroscopic.us_p50": ("us", "lower"),
    "squeezing.mean_z.ms": ("ms", "lower"),
    "squeezing.transverse_variance.ms": ("ms", "lower"),
    "squeezing.sm_bound.ms": ("ms", "lower"),
    "squeezing.sm_bound.digits": ("digits", "higher"),
    "squeezing.optimal_theta.ms": ("ms", "lower"),
    "squeezing.optimal_theta.self_ms": ("ms", "lower"),
    "squeezing.optimal_theta.us_p50": ("us", "lower"),
    "squeezing.variance_asymptotic_coeff.us_p50": ("us", "lower"),
    "oracle.sweep.ms": ("ms", "lower"),
    "oracle.sweep.amps_per_s": ("1/s", "higher"),
    "oracle.expect_pair.us_p50": ("us", "lower"),
    "gates.controlled_rotation.us_p50": ("us", "lower"),
    "gates.squeezing_gate.us_p50": ("us", "lower"),
    "gates.weyl_gate.us_p50": ("us", "lower"),
    "gates.macroscopic_family.us_p50": ("us", "lower"),
    "gates.load_gate.us_p50": ("us", "lower"),
    "transfer.build_transfer.us_p50": ("us", "lower"),
    "cli.overhead_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "runtime_warnings": ("count", "lower"),
}


def _sites(args) -> int:
    return args["n_sites"]


def _amplitude_updates(args) -> int:
    n = args["chain"].n
    gates_applied = n - 1 if args["upto"] is None else args["upto"]
    return gates_applied * 2 ** n


# (module, function, work) wrapped in chainsweep during a traced replay
TRACED = [
    ("gates", "controlled_rotation", None),
    ("gates", "squeezing_gate", None),
    ("gates", "weyl_gate", None),
    ("gates", "macroscopic_family", None),
    ("gates", "load_gate", None),
    ("transfer", "build_transfer", None),
    ("transfer", "spectral", None),
    ("densemat", "eig_general", None),
    ("densemat", "hermitian_eig", None),
    ("densemat", "matpow", None),
    ("correlators", "one_point", None),
    ("correlators", "two_point", None),
    ("correlators", "collective_mean", _sites),
    ("correlators", "additive_variance_exact", _sites),
    ("correlators", "asymptotic_variance", None),
    ("macroscopicity", "variance_sweep", None),
    ("macroscopicity", "neff_optimize", None),
    ("macroscopicity", "classify_macroscopic", None),
    ("squeezing", "sm_bound", None),
    ("squeezing", "optimal_theta", None),
    ("squeezing", "variance_asymptotic_coeff", None),
    ("squeezing", "mean_z", None),
    ("squeezing", "transverse_variance", None),
    ("oracle", "sweep", _amplitude_updates),
    ("oracle", "expect_pair", None),
]
