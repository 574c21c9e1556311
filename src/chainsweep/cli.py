"""Command-line interface: every analysis as a reproducible CSV run.

Exit codes: 0 success, 2 rejected input, 3 numerical-tolerance failure.
Identical configurations produce byte-identical CSV; a leading comment line
embeds the full configuration for provenance.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

import numpy as np

from . import correlators, macroscopicity, oracle, squeezing
from .errors import ConvergenceError, InputError, ToleranceError
from .gates import Gate, gate_from_family, load_gate
from .transfer import ChainSpec, LocalObservable, build_transfer

OUT_DIR_ENV = "CHAINSWEEP_OUT_DIR"

# correlate writes every pair (m, n) up to this chain length and only the
# nearest neighbours (m, m + 1) above it.
PAIR_CAP = 32

_PI_TOKEN = re.compile(
    r"^(?P<sign>[+-])?(?P<coeff>\d+\.?\d*|\.\d+)?\*?pi(?:/(?P<den>\d+\.?\d*))?$",
    re.IGNORECASE)


def parse_angle(text: str) -> float:
    """Decimal radians or pi tokens with multipliers and a single offset:
    'pi', '-pi/4', '3pi/4', 'pi-0.1'."""
    token = text.strip().replace(" ", "")
    match = _PI_TOKEN.match(token)
    if match:
        value = np.pi
        if match.group("coeff"):
            value *= float(match.group("coeff"))
        if match.group("den"):
            value /= float(match.group("den"))
        if match.group("sign") == "-":
            value = -value
        return float(value)
    try:
        return float(token)
    except ValueError:
        pass
    for pos in range(len(token) - 1, 0, -1):
        if token[pos] in "+-" and token[pos - 1] not in "eE+-":
            try:
                left = parse_angle(token[:pos])
                right = parse_angle(token[pos + 1:])
            except InputError:
                continue
            return left + right if token[pos] == "+" else left - right
    raise InputError(f"cannot parse angle {text!r}")


def parse_angle_list(text: str) -> list[float]:
    """Comma list of angles; an empty field is rejected, never skipped."""
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise InputError(f"empty field in comma list {text!r}")
    return [parse_angle(part) for part in parts]


def parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise InputError(f"cannot parse complex number {text!r}") from exc


def parse_n_range(text: str) -> list[int]:
    """'start:stop:count' -> geometrically spaced integers, deduplicated,
    endpoints included."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError("--n-range wants start:stop:count")
    try:
        start, stop, count = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad --n-range {text!r}") from exc
    if start < 2 or stop < start or count < 1:
        raise InputError(f"bad --n-range {text!r}")
    if count == 1:
        return [start]
    raw = np.geomspace(start, stop, count)
    out = sorted({int(round(x)) for x in raw} | {start, stop})
    return out


def parse_grid(text: str) -> list[float]:
    """Comma list of angles, or 'start:stop:count' linearly spaced."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError("grid wants start:stop:count or a comma list")
        start, stop = parse_angle(parts[0]), parse_angle(parts[1])
        try:
            count = int(parts[2])
        except ValueError as exc:
            raise InputError(f"bad grid count {parts[2]!r}") from exc
        if count < 1:
            raise InputError("grid count must be positive")
        return [float(x) for x in np.linspace(start, stop, count)]
    return parse_angle_list(text)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(args, header: list[str], rows: list[list], config: dict) -> None:
    lines = ["# config: " + " ".join(f"{k}={v}" for k, v in sorted(config.items()))]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        path = args.out
        out_dir = os.environ.get(OUT_DIR_ENV)
        if out_dir and not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_gate(args, params: str | None) -> Gate:
    """The gate of --gate-file, else of --gate with the comma list ``params``."""
    if args.gate_file:
        return load_gate(args.gate_file, unitarity_tol=args.unitarity_tol)
    if args.gate:
        return gate_from_family(args.gate, parse_angle_list(params) if params else [])
    raise InputError("provide --gate FAMILY [--params ...] or --gate-file PATH")


def _resolve_chain(args, n: int) -> ChainSpec:
    c0 = parse_complex(args.c0) if args.c0 is not None else 1.0 + 0.0j
    c1 = parse_complex(args.c1) if args.c1 is not None else 0.0 + 0.0j
    return ChainSpec(n, c0, c1)


def _resolve_bloch(args) -> LocalObservable:
    try:
        parts = [float(x) for x in (args.bloch or "0,0,1").split(",")]
    except ValueError as exc:
        raise InputError(f"cannot parse --bloch {args.bloch!r}") from exc
    return LocalObservable.from_bloch(parts)


def _config_of(args, **extra) -> dict:
    skip = {"func", "out"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    cfg.update(extra)
    return cfg


def cmd_spectrum(args) -> int:
    verdict = macroscopicity.classify_macroscopic(_resolve_gate(args, args.params),
                                                  tol=args.tol)
    spec = verdict.spectrum
    rows = []
    for idx, lam in enumerate(spec.values):
        rows.append([idx, lam.real, lam.imag, abs(lam), spec.unit_dim,
                     verdict.is_macroscopic])
    _write_csv(args, ["index", "eig_re", "eig_im", "modulus",
                      "unit_dimension", "is_macroscopic"], rows, _config_of(args))
    return 0


def cmd_fig3(args) -> int:
    a_list = parse_angle_list(args.a_list)
    n_list = parse_n_range(args.n_range)
    obs = _resolve_bloch(args)
    rows = []
    for a in a_list:
        gate = gate_from_family("controlled_rotation", [a])
        c0 = parse_complex(args.c0) if args.c0 is not None else 1 / np.sqrt(2)
        c1 = parse_complex(args.c1) if args.c1 is not None else 1 / np.sqrt(2)
        sweep_rows = macroscopicity.variance_sweep(gate, (c0, c1), obs, n_list)
        for entry in sweep_rows:
            n = entry["n"]
            oracle_var = None
            if n <= args.oracle_cap:
                state = oracle.sweep(gate, ChainSpec(n, c0, c1))
                oracle_var = oracle.collective_variance(state, obs)
            rows.append([a, n, entry["variance"], entry["slope"], oracle_var])
    _write_csv(args, ["a", "n", "variance", "slope", "oracle_variance"],
               rows, _config_of(args))
    return 0


def cmd_fig4(args) -> int:
    grid = parse_grid(args.chi_t)
    theta = parse_angle(args.theta) if args.theta is not None else None
    header = ["chi_t", "m", "v", "f_half", "f_one", "below_separable", "below_pairwise"]
    rows = [[entry[k] for k in header] for entry in squeezing.fig4_curve(grid, theta=theta)]
    _write_csv(args, header, rows, _config_of(args))
    return 0


def cmd_neff(args) -> int:
    param_sets = [""] if args.gate_file else args.params or [""]
    specs = [("file" if args.gate_file else params.replace(",", ";"),
              _resolve_gate(args, params)) for params in param_sets]
    chain = _resolve_chain(args, 2)
    rows = []
    for label, gate in specs:
        report = macroscopicity.neff_optimize(gate, chain)
        rows.append([gate.family, label, report.unit_dimension, report.neff_coeff,
                     report.best_direction[0], report.best_direction[1],
                     report.best_direction[2]])
    _write_csv(args, ["family", "params", "unit_dimension", "neff_coeff",
                      "nx", "ny", "nz"], rows, _config_of(args, params=";".join(
                          label for label, _ in specs)))
    return 0


def cmd_correlate(args) -> int:
    gate = _resolve_gate(args, args.params)
    chain = _resolve_chain(args, args.n)
    ts = build_transfer(gate, chain)
    obs = _resolve_bloch(args)
    if args.n <= PAIR_CAP:
        pairs = [(m, k) for m in range(1, args.n + 1) for k in range(m + 1, args.n + 1)]
    else:
        pairs = [(m, m + 1) for m in range(1, args.n)]
    one, two = correlators.site_correlations(ts, obs, args.n, pairs)
    rows = [["one", m, None, value] for m, value in enumerate(one, start=1)]
    rows += [["two", m, k, value] for (m, k), value in zip(pairs, two)]
    _write_csv(args, ["kind", "m", "n", "value"], rows, _config_of(args))
    return 0


def cmd_oracle_check(args) -> int:
    from .gates import random_gate
    rng = np.random.default_rng(args.seed)
    rows = []
    all_pass = True
    for k in range(args.count):
        seed = args.seed + k
        gate = random_gate(seed)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        obs = LocalObservable.from_bloch(direction)
        chain = _resolve_chain(args, args.n)
        ts = build_transfer(gate, chain)
        state = oracle.sweep(gate, chain)
        pairs = [(m, k2) for m in range(1, args.n + 1) for k2 in range(m + 1, args.n + 1)]
        one, two = correlators.site_correlations(ts, obs, args.n, pairs)
        dev_one = max(abs(value - oracle.expect_local(state, obs, m))
                      for m, value in enumerate(one, start=1))
        dev_two = max(abs(value - oracle.expect_pair(state, obs, m, k2))
                      for (m, k2), value in zip(pairs, two))
        dev_mean = abs(correlators.collective_mean(ts, obs, args.n)
                       - oracle.collective_mean(state, obs))
        dev_var = abs(correlators.additive_variance_exact(ts, obs, args.n).total
                      - oracle.collective_variance(state, obs))
        ok = max(dev_one, dev_two, dev_mean, dev_var) <= args.tol
        all_pass = all_pass and ok
        rows.append([seed, args.n, dev_one, dev_two, dev_mean, dev_var,
                     "pass" if ok else "fail"])
    _write_csv(args, ["seed", "n", "max_dev_one", "max_dev_two", "max_dev_mean",
                      "max_dev_var", "status"], rows, _config_of(args))
    if not all_pass:
        raise ToleranceError(f"oracle check failed at tolerance {args.tol:g}")
    return 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    main() call in the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="chainsweep",
        description="Transfer-matrix analysis of one two-qubit-gate sweep "
                    "along a qubit chain")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gate_flags(p, with_params_list=False):
        p.add_argument("--gate", help="gate family name")
        if with_params_list:
            p.add_argument("--params", action="append",
                           help="comma-separated parameters (repeatable)")
        else:
            p.add_argument("--params", help="comma-separated gate parameters")
        p.add_argument("--gate-file", help="path to a gate JSON file")
        p.add_argument("--unitarity-tol", type=float, default=1e-12,
                       help="unitarity validation tolerance for gate files; it "
                            "loosens only columns 1 and 3 (0-based), which the "
                            "sweep never reads: the isometry of columns 0 and 2 "
                            "is re-checked at 1e-12")

    def add_common(p, amplitudes=True):
        if amplitudes:
            p.add_argument("--c0", help="first-site amplitude c0 (complex)")
            p.add_argument("--c1", help="first-site amplitude c1 (complex)")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="numerical tolerance (default 1e-9)")
        p.add_argument("--out", help=f"output CSV path (relative paths join "
                                     f"${OUT_DIR_ENV} when set); stdout if omitted")

    p = sub.add_parser("spectrum", help="transfer-matrix spectrum and verdict")
    add_gate_flags(p)
    add_common(p, amplitudes=False)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fig3", help="collective variance vs N for controlled rotations")
    p.add_argument("--a-list", default="pi,pi-0.1,pi-0.2,pi-0.3,pi-0.4",
                   help="comma list of rotation angles")
    p.add_argument("--n-range", default="4:1000:12", help="start:stop:count (geometric)")
    p.add_argument("--bloch", help="observable direction nx,ny,nz (default z)")
    p.add_argument("--oracle-cap", type=int, default=12,
                   help="emit oracle column for N up to this size")
    add_common(p)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("fig4", help="squeezing trajectory against depth bounds")
    p.add_argument("--chi-t", default="0.02:1.5:75",
                   help="chi*t grid: comma list or start:stop:count")
    p.add_argument("--theta", help="fix the transverse angle (default: minimize)")
    add_common(p, amplitudes=False)
    p.set_defaults(func=cmd_fig4)

    p = sub.add_parser("neff", help="effective-size coefficient and best direction")
    add_gate_flags(p, with_params_list=True)
    add_common(p)
    p.set_defaults(func=cmd_neff)

    p = sub.add_parser("correlate", help="one- and two-point functions")
    add_gate_flags(p)
    p.add_argument("--n", type=int, required=True,
                   help=f"chain length; above {PAIR_CAP} only nearest-neighbour "
                        f"pairs are written")
    p.add_argument("--bloch", help="observable direction nx,ny,nz (default z)")
    add_common(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("oracle-check",
                       help="transfer formulas vs state-vector oracle on random gates")
    p.add_argument("--n", type=int, default=8, help="chain length (<= 16)")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--count", type=int, default=20, help="number of random gates")
    add_common(p)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToleranceError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
