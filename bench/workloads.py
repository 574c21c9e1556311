"""The three benchmark workloads: seeded inputs, items, and their checks.

Each workload is a closed loop with one caller: items run one after another
in a single process.  An item has a CLI form (``chainsweep.cli.main`` in
process, what users run), a library form (the public functions that CLI
command wraps, called with the same arguments, which a traced run replays),
and a check that compares either form's output with references.  Items
with no CLI command have only the library form.
"""

from __future__ import annotations

import contextlib
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from chainsweep import (cli, correlators, gates, macroscopicity, oracle,
                        squeezing, transfer)
from chainsweep.transfer import SIGMA_Z, ChainSpec, LocalObservable

import references as ref
from references import Check


class CliFailure(Exception):
    """The CLI exited with a nonzero code."""


@dataclass
class Item:
    id: str
    lib: Callable[[], object]
    check: Callable[[object], list[Check]]
    cli: Callable[[], object] | None = None


def run_cli(argv: list[str]) -> list[dict[str, str]]:
    """Run one CLI command in process and parse its CSV (after the config
    comment line) into rows keyed by column name."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    if code != 0:
        raise CliFailure(f"chainsweep {' '.join(argv[:1])} exited with {code}")
    lines = buf.getvalue().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def _num(text: str) -> float | None:
    return float(text) if text != "" else None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _jittered(rng, lo: float, hi: float, count: int) -> list[float]:
    """``count`` points from lo to hi, endpoints kept, each interior point
    moved at random within +-45% of the spacing."""
    base = np.linspace(lo, hi, count)
    step = base[1] - base[0]
    base[1:-1] += rng.uniform(-0.45, 0.45, count - 2) * step
    return [float(x) for x in base]


def _unit_vector(rng) -> list[float]:
    v = rng.standard_normal(3)
    return [float(x) for x in v / np.linalg.norm(v)]


def _amplitudes(rng) -> tuple[complex, complex]:
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c /= np.linalg.norm(c)
    return complex(c[0]), complex(c[1])


def _fmt_complex(c: complex) -> str:
    return f"{_fmt(c.real)}{'+' if c.imag >= 0 else '-'}{_fmt(abs(c.imag))}j"


# ---------------------------------------------------------------------------
# fig4-trajectory
# ---------------------------------------------------------------------------

FIG4_POINTS = 75          # the CLI default grid size
FIG4_RANGE = (0.02, 1.5)  # the CLI default range; both endpoints always kept


def fig4_inputs(rng, workdir: Path) -> dict:
    return {"chi_t": _jittered(rng, *FIG4_RANGE, FIG4_POINTS)}


def fig4_items(inputs: dict) -> list[Item]:
    grid = inputs["chi_t"]
    argv = ["fig4", "--chi-t", ",".join(_fmt(c) for c in grid)]
    flags = ("below_separable", "below_pairwise")

    def via_cli():
        return [{k: (v == "1") if k in flags else _num(v) for k, v in row.items()}
                for row in run_cli(argv)]

    def via_lib():
        return squeezing.fig4_curve(grid)

    def check(rows) -> list[Check]:
        checks = [Check("rows", len(rows), len(grid), 0.0)]
        for chi_t, row in zip(grid, rows):
            separable, pairwise = ref.depth_flags(chi_t)
            checks += [
                Check("chi_t", row["chi_t"], chi_t, 0.0),
                Check("m", row["m"], ref.mean_coeff(chi_t), ref.TOL_MEAN_COEFF),
                Check("v", row["v"], ref.variance_coeff(chi_t), ref.TOL_VAR_COEFF),
                Check("below_separable", row["below_separable"], separable, 0.0),
                Check("below_pairwise", row["below_pairwise"], pairwise, 0.0),
                Check("f_one", row["f_one"], ref.pairwise_bound(ref.mean_coeff(chi_t)),
                      None, metric="bound_digits"),
            ]
        return checks

    return [Item("fig4", via_lib, check, via_cli)]


# ---------------------------------------------------------------------------
# long-chain
# ---------------------------------------------------------------------------

FIG3_A = ["pi", "pi-0.1", "pi-0.2", "pi-0.3", "pi-0.4"]
FIG3_DETUNING = [0.0, 0.1, 0.2, 0.3, 0.4]   # the same angles as floats
FIG3_COUNT = 12
ORACLE_CAP = 12           # the CLI default --oracle-cap
SQUEEZE_THETA = math.pi / 4


def long_chain_inputs(rng, workdir: Path) -> dict:
    start = int(rng.integers(4, 7))
    stop = 20000 + int(rng.integers(-400, 401))
    return {"n_range": [start, stop, FIG3_COUNT],
            "n_list": ref.geometric_n(start, stop, FIG3_COUNT),
            "chi_t": [float(rng.uniform(0.3, 0.6)), float(rng.uniform(0.8, 1.1))]}


def long_chain_items(inputs: dict) -> list[Item]:
    n_list = inputs["n_list"]
    a_values = [math.pi - d for d in FIG3_DETUNING]
    argv = ["fig3", "--a-list", ",".join(FIG3_A),
            "--n-range", ":".join(str(x) for x in inputs["n_range"]),
            "--oracle-cap", str(ORACLE_CAP)]
    plus = (1 / np.sqrt(2), 1 / np.sqrt(2))

    def fig3_cli():
        return [{k: _num(v) for k, v in row.items()} for row in run_cli(argv)]

    def fig3_lib():
        rows = []
        for a in a_values:
            gate = gates.controlled_rotation(a)
            for entry in macroscopicity.variance_sweep(gate, plus, SIGMA_Z, n_list):
                n = entry["n"]
                oracle_var = None
                if n <= ORACLE_CAP:
                    state = oracle.sweep(gate, ChainSpec(n, *plus))
                    oracle_var = oracle.collective_variance(state, SIGMA_Z)
                rows.append({"a": a, "n": n, "variance": entry["variance"],
                             "slope": entry["slope"], "oracle_variance": oracle_var})
        return rows

    def fig3_check(rows) -> list[Check]:
        want = [(a, n) for a in a_values for n in n_list]
        checks = [Check("rows", len(rows), len(want), 0.0)]
        for (a, n), row in zip(want, rows):
            checks += [Check("a", row["a"], a, 1e-12), Check("n", row["n"], n, 0.0)]
            if a == math.pi:
                checks.append(Check("cnot_n_squared", row["variance"], float(n) ** 2,
                                    ref.TOL_SQUARES, relative=True))
            if n <= ORACLE_CAP:
                checks.append(Check("oracle_variance", row["variance"],
                                    row["oracle_variance"], ref.TOL_ORACLE))
            else:
                checks.append(Check("no_oracle_column",
                                    row["oracle_variance"] is None, True, 0.0))
        return checks

    items = [Item("fig3", fig3_lib, fig3_check, fig3_cli)]
    obs = LocalObservable.from_bloch([math.cos(SQUEEZE_THETA), math.sin(SQUEEZE_THETA), 0.0])
    for k, chi_t in enumerate(inputs["chi_t"]):
        items.append(_squeezing_item(f"squeezing{k}", chi_t, n_list, obs))
    return items


def _squeezing_item(item_id: str, chi_t: float, n_list: list[int],
                    obs: LocalObservable) -> Item:
    oracle_refs = {}
    for n in n_list:
        if n <= ORACLE_CAP:
            state = oracle.sweep(gates.squeezing_gate(chi_t), ChainSpec(n))
            oracle_refs[n] = (oracle.collective_mean(state, SIGMA_Z),
                              oracle.collective_variance(state, obs))

    def via_lib():
        return [(squeezing.mean_z(chi_t, n),
                 squeezing.transverse_variance(chi_t, SQUEEZE_THETA, n)) for n in n_list]

    def check(values) -> list[Check]:
        checks = [Check("rows", len(values), len(n_list), 0.0)]
        for n, (mean, var) in zip(n_list, values):
            if n in oracle_refs:
                checks += [Check("oracle_mean", mean, oracle_refs[n][0], ref.TOL_ORACLE),
                           Check("oracle_variance", var, oracle_refs[n][1], ref.TOL_ORACLE)]
        (n1, (m1, v1)), (n2, (m2, v2)) = list(zip(n_list, values))[-2:]
        checks += [
            Check("mean_slope", (m2 - m1) / (n2 - n1), ref.mean_coeff(chi_t), ref.TOL_SLOPE),
            Check("variance_slope", (v2 - v1) / (n2 - n1), ref.variance_coeff(chi_t),
                  ref.TOL_SLOPE),
        ]
        return checks

    return Item(item_id, via_lib, check)


# ---------------------------------------------------------------------------
# gate-census
# ---------------------------------------------------------------------------

CENSUS_RANDOM = 12
CENSUS_MACRO = 9           # macroscopic_family with generic angles
CENSUS_MACRO_TRIVIAL = 3   # macroscopic_family with theta = theta' = 0
CENSUS_WEYL = 8            # weyl(alpha, pi/2, pi/2)
CENSUS_N = 10
SPECTRUM_TOL = 1e-9        # the CLI default --tol


def gate_census_inputs(rng, workdir: Path) -> dict:
    specs = []
    for _ in range(CENSUS_RANDOM):
        specs.append(("random", gates.random_gate(int(rng.integers(0, 2 ** 31)))))
    for k in range(CENSUS_MACRO + CENSUS_MACRO_TRIVIAL):
        p = float(rng.uniform(0.1, 0.9))
        if k < CENSUS_MACRO:
            theta, theta_p = (float(x) for x in rng.uniform(0.1, math.pi - 0.1, 2))
        else:
            theta = theta_p = 0.0
        specs.append(("macro", gates.macroscopic_family(
            p, theta, theta_p, seed=int(rng.integers(0, 1000)))))
    for _ in range(CENSUS_WEYL):
        alpha = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        specs.append(("weyl", gates.weyl_gate(alpha, math.pi / 2, math.pi / 2)))
    out = []
    for k, (kind, gate) in enumerate(specs):
        path = workdir / f"gate{k:02d}.json"
        gates.save_gate(gate, path)
        c0, c1 = _amplitudes(rng)
        out.append({"kind": kind, "path": str(path), "params": list(gate.params),
                    "matrix": gate.matrix, "bloch": _unit_vector(rng),
                    "c0": c0, "c1": c1})
    return {"gates": out}


def _census_expectations(spec: dict) -> dict:
    """Reference spectrum, unit dimension, verdict and neff for one gate."""
    kind, params = spec["kind"], spec["params"]
    trivial = kind == "macro" and params[1] == 0.0 and params[2] == 0.0
    if kind == "weyl":
        eigs = ref.weyl_eigenvalues(*params)
        neff = math.cos(params[0]) ** 2
    else:
        eigs = list(np.linalg.eigvals(ref.transfer_matrix(spec["matrix"])))
        neff = 0.0
    if kind == "macro":
        # The coefficient is a quadratic form in the direction: its maximum is
        # the top eigenvalue of the 3x3 form that six fixed directions determine.
        gate = gates.Gate(spec["matrix"], family="custom")
        chain = ChainSpec(2)
        axes = [macroscopicity.neff(gate, chain, e) for e in np.eye(3)]
        diagonals = [macroscopicity.neff(gate, chain, np.eye(3)[i] + np.eye(3)[j])
                     for i, j in ((0, 1), (0, 2), (1, 2))]
        neff = ref.top_quadratic_value(axes, diagonals)
    return {"eigs": eigs, "unit_dim": 1 if kind == "random" else (4 if trivial else 2),
            "macro": kind != "random", "neff": neff}


def gate_census_items(inputs: dict) -> list[Item]:
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        return [_census_item(k, spec, _census_expectations(spec))
                for k, spec in enumerate(inputs["gates"])]


def _census_item(k: int, spec: dict, want: dict) -> Item:
    path, n = spec["path"], CENSUS_N
    c0, c1, bloch = spec["c0"], spec["c1"], spec["bloch"]
    # "--flag=value" keeps argparse from reading a leading minus as a flag
    correlate_argv = ["correlate", "--gate-file", path, "--n", str(n),
                      "--bloch=" + ",".join(_fmt(x) for x in bloch),
                      "--c0=" + _fmt_complex(c0), "--c1=" + _fmt_complex(c1)]
    pairs = [(m, j) for m in range(1, n + 1) for j in range(m + 1, n + 1)]
    obs = LocalObservable.from_bloch(bloch)

    def oracle_values(out: dict) -> dict:
        state = oracle.sweep(gates.load_gate(path), ChainSpec(n, c0, c1))
        out["oracle_one"] = [oracle.expect_local(state, obs, m) for m in range(1, n + 1)]
        out["oracle_two"] = [oracle.expect_pair(state, obs, m, j) for m, j in pairs]
        return out

    def via_cli():
        spectrum = run_cli(["spectrum", "--gate-file", path])
        neff_row = run_cli(["neff", "--gate-file", path])[0]
        corr = run_cli(correlate_argv)
        return oracle_values({
            "eigs": [complex(float(r["eig_re"]), float(r["eig_im"])) for r in spectrum],
            "spectrum_unit_dim": [int(r["unit_dimension"]) for r in spectrum],
            "is_macro": [r["is_macroscopic"] == "1" for r in spectrum],
            "neff_unit_dim": int(neff_row["unit_dimension"]),
            "neff": float(neff_row["neff_coeff"]),
            "direction": [float(neff_row[c]) for c in ("nx", "ny", "nz")],
            "one": [float(r["value"]) for r in corr if r["kind"] == "one"],
            "two": [float(r["value"]) for r in corr if r["kind"] == "two"],
        })

    def via_lib():
        gate = gates.load_gate(path)
        ts = transfer.build_transfer(gate, ChainSpec(2))
        spec_data = transfer.spectral(ts.e, tol=SPECTRUM_TOL)
        verdict = macroscopicity.classify_macroscopic(gate, tol=SPECTRUM_TOL)
        report = macroscopicity.neff_optimize(gates.load_gate(path), ChainSpec(2))
        ts_n = transfer.build_transfer(gates.load_gate(path), ChainSpec(n, c0, c1))
        return oracle_values({
            "eigs": list(spec_data.values),
            "spectrum_unit_dim": [spec_data.unit_dim] * len(spec_data.values),
            "is_macro": [verdict.is_macroscopic] * len(spec_data.values),
            "neff_unit_dim": report.unit_dimension,
            "neff": report.neff_coeff,
            "direction": list(report.best_direction),
            "one": [correlators.one_point(ts_n, obs, m, n) for m in range(1, n + 1)],
            "two": [correlators.two_point(ts_n, obs, m, j, n) for m, j in pairs],
        })

    def check(out) -> list[Check]:
        checks = [
            # How many digits a spectrum keeps depends on how close the seeded
            # gate's eigenvalues lie (13 to 15 here); reported apart.
            Check("eigenvalues", ref.multiset_dev(out["eigs"], want["eigs"]), 0.0,
                  ref.TOL_EIGENVALUES, metric="spectrum_digits"),
            Check("neff_unit_dim", out["neff_unit_dim"], want["unit_dim"], 0.0),
            Check("neff", out["neff"], want["neff"], ref.TOL_NEFF),
            Check("one_count", len(out["one"]), n, 0.0),
            Check("two_count", len(out["two"]), len(pairs), 0.0),
        ]
        checks += [Check("spectrum_unit_dim", d, want["unit_dim"], 0.0)
                   for d in out["spectrum_unit_dim"]]
        checks += [Check("is_macroscopic", v, want["macro"], 0.0) for v in out["is_macro"]]
        if spec["kind"] == "weyl":
            y = min(1.0, abs(out["direction"][1]))
            # An optimum is flat, so a direction carries about half the digits
            # of its value; its digits are reported apart.
            checks.append(Check("direction", math.acos(y), 0.0, ref.TOL_DIRECTION,
                                metric="direction_digits"))
        checks += [Check("one_point", got, want_v, ref.TOL_ORACLE)
                   for got, want_v in zip(out["one"], out["oracle_one"])]
        checks += [Check("two_point", got, want_v, ref.TOL_ORACLE)
                   for got, want_v in zip(out["two"], out["oracle_two"])]
        return checks

    return Item(f"gate{k:02d}-{spec['kind']}", via_lib, check, via_cli)


WORKLOADS = {
    "fig4-trajectory": (fig4_inputs, fig4_items),
    "long-chain": (long_chain_inputs, long_chain_items),
    "gate-census": (gate_census_inputs, gate_census_items),
}


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Seeded inputs for one workload; gate files go under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload][0](np.random.default_rng(seed), workdir)


def make_items(workload: str, inputs: dict) -> list[Item]:
    """Items of one pass, with their references computed once."""
    return WORKLOADS[workload][1](inputs)
