"""Tests of the benchmark itself: seeded inputs, reference formulas, span
arithmetic and metric names.

    python3 -m pytest bench/tests -q
"""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import metrics  # noqa: E402
import references as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chainsweep import cli, gates, macroscopicity, squeezing  # noqa: E402
from chainsweep.transfer import (ChainSpec, build_transfer, extract_kraus,  # noqa: E402
                                 spectral, transfer_E)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _describe(value):
    """Inputs as plain data, with gate files replaced by their contents."""
    if isinstance(value, dict):
        return {k: (Path(v).read_text() if k == "path" else _describe(v))
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_describe(v) for v in value]
    if isinstance(value, np.ndarray):
        return _describe(value.tolist())
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    first = _describe(workloads.make_inputs(name, 3, tmp_path / "a"))
    again = _describe(workloads.make_inputs(name, 3, tmp_path / "b"))
    other = _describe(workloads.make_inputs(name, 4, tmp_path / "c"))
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)


def test_fig4_grid_keeps_endpoints(tmp_path):
    grid = workloads.make_inputs("fig4-trajectory", 5, tmp_path)["chi_t"]
    assert grid[0] == 0.02 and grid[-1] == 1.5
    assert len(grid) == workloads.FIG4_POINTS
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_squeezing_closed_forms_match_package():
    for chi_t in (0.3, 0.7, 1.2):
        assert abs(ref.mean_coeff(chi_t) - squeezing.mean_z_asymptotic_coeff(chi_t)) < 1e-14
        assert abs(ref.variance_coeff(chi_t)
                   - squeezing.variance_asymptotic_coeff(chi_t, math.pi / 4)) < 1e-10


def test_pairwise_bound_matches_package_curve():
    curve = squeezing.sm_bound(1.0, [0.3, 0.6])
    for m, v in curve.samples:
        assert abs(ref.pairwise_bound(m) - v) < 1e-6


def test_depth_flags_match_package():
    rows = squeezing.fig4_curve([0.2, 0.3, 1.0])
    for row in rows:
        assert ref.depth_flags(row["chi_t"]) == (row["below_separable"],
                                                 row["below_pairwise"])


def test_geometric_n_matches_cli():
    assert ref.geometric_n(5, 20000, 12) == cli.parse_n_range("5:20000:12")
    assert ref.geometric_n(4, 19700, 12) == cli.parse_n_range("4:19700:12")


def test_transfer_matrix_matches_package():
    gate = gates.random_gate(3)
    assert np.max(np.abs(ref.transfer_matrix(gate.matrix)
                         - transfer_E(extract_kraus(gate)))) < 1e-15


def test_weyl_eigenvalues_match_package():
    params = (0.7, math.pi / 2, math.pi / 2)
    values = spectral(build_transfer(gates.weyl_gate(*params), ChainSpec(2)).e).values
    assert ref.multiset_dev(values, ref.weyl_eigenvalues(*params)) < 1e-9


def test_quadratic_form_maximum_matches_optimizer():
    gate = gates.macroscopic_family(0.4, 0.5, 1.0, seed=7)
    chain = ChainSpec(2)
    eye = np.eye(3)
    axes = [macroscopicity.neff(gate, chain, e) for e in eye]
    diagonals = [macroscopicity.neff(gate, chain, eye[i] + eye[j])
                 for i, j in ((0, 1), (0, 2), (1, 2))]
    best = macroscopicity.neff_optimize(gate, chain).neff_coeff
    assert abs(ref.top_quadratic_value(axes, diagonals) - best) < 1e-8


def test_digits_and_tolerances():
    assert ref.digits(1.0, 1.0) == 16.0
    assert ref.digits(1.0 + 1e-6, 1.0) == pytest.approx(6.0, abs=1e-6)
    assert ref.digits(200.0 * (1 + 1e-9), 200.0) == pytest.approx(9.0, abs=1e-4)
    assert ref.digits(float("nan"), 1.0) == 0.0
    assert ref.Check("x", 1.0 + 5e-9, 1.0, 1e-8).passed
    assert not ref.Check("x", 1.0 + 2e-8, 1.0, 1e-8).passed
    assert ref.Check("x", 400.0 * (1 + 5e-10), 400.0, 1e-9, relative=True).passed
    assert not ref.Check("x", 400.0 + 1e-6, 400.0, 1e-9).passed
    assert ref.Check("x", 0.5, 0.0, None).passed
    assert not ref.Check("flag", True, False, 0.0).passed


def test_self_time_arithmetic():
    spans = [
        tracing.Span("root", 0.0, 10.0, None, "i"),
        tracing.Span("a", 1.0, 3.0, 0, "i"),
        tracing.Span("b", 2.0, 4.0, 0, "i"),     # overlaps a: counted once
        tracing.Span("c", 1.5, 2.5, 1, "i"),     # grandchild: only a loses it
        tracing.Span("d", 9.0, 12.0, 0, "i"),    # overhang clipped to the parent
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0, 3.0])
    stats = tracing.aggregate(spans)
    assert stats["root"].self_s == pytest.approx(6.0)
    assert tracing.layer_value(stats, "a.ms", passes=2) == pytest.approx(1000.0)
    assert tracing.layer_value(stats, "missing.calls", passes=1) == 0.0


def test_instrument_records_nested_spans_and_restores():
    original = squeezing.variance_asymptotic_coeff
    tracer = tracing.Tracer([])
    tracer.item = "x"
    with tracing.instrument(tracer, "chainsweep", metrics.TRACED):
        squeezing.variance_asymptotic_coeff(0.5, math.pi / 4)
    assert squeezing.variance_asymptotic_coeff is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "squeezing.variance_asymptotic_coeff"
    spectral_spans = [s for s in tracer.spans if s.name == "transfer.spectral"]
    assert spectral_spans and all(s.parent is not None for s in spectral_spans)
    assert all(s.item == "x" and s.end >= s.start for s in tracer.spans)


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, table in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert listed == table
        assert all(NAME.match(name) for name in listed)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
