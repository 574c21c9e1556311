"""Command-line interface: every analysis as a reproducible CSV run.

Exit codes: 0 success, 2 rejected input, 3 numerical-tolerance failure.
Identical configurations produce byte-identical CSV; a leading comment line
embeds the full configuration for provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import re
import sys

import numpy as np

from . import correlators, macroscopicity, oracle, squeezing
from .errors import ConvergenceError, InputError, ToleranceError
from .gates import Gate, controlled_rotation, gate_from_family, load_gate, random_gate
from .transfer import ChainSpec, LocalObservable, build_transfer

OUT_DIR_ENV = "CHAINSWEEP_OUT_DIR"

# correlate writes every pair (m, n) up to this chain length and only the
# nearest neighbours (m, m + 1) above it.
PAIR_CAP = 32
CORRELATE_MAX_N = 10 ** 6   # correlate's longest chain, checked before any allocation
ORACLE_MAX_COUNT = 10 ** 4   # oracle-check's most gates, checked before any is built

_PI_TOKEN = re.compile(
    r"^(?P<sign>[+-])?(?P<coeff>\d+\.?\d*|\.\d+)?\*?pi(?:/(?P<den>\d+\.?\d*))?$",
    re.IGNORECASE)
_TERM_SIGN = re.compile(r"(?<=[^eE+-])([+-])")


def _angle_term(token: str, text: str) -> float | None:
    """A decimal or a pi token ('pi', '-pi/4', '3pi/4') in radians, else None.
    No token is both (float() reads no 'pi'), so the cheap decimal goes first.
    parse_angle calls it only for the terms of a text float() refused."""
    try:
        return float(token)
    except ValueError:
        match = _PI_TOKEN.match(token)
    if not match:
        return None
    value = np.pi
    if match.group("coeff"):
        value *= float(match.group("coeff"))
    if match.group("den"):
        den = float(match.group("den"))
        if den == 0.0:
            raise InputError(f"zero denominator in angle {text!r}")
        value /= den
    if match.group("sign") == "-":
        value = -value
    return float(value)


def parse_angle(text: str) -> float:
    """Radians as one decimal or pi token, or a sum of them: 'pi', '-pi/4',
    '3pi/4', 'pi-0.1', '0.7+pi/2-0.1'.  A text that float() reads is that
    float: it has no sign outside its exponent, so a split would leave it one
    term.  Any other token splits once at each + or - that is not its first
    character and does not follow e, E, + or -; each term is parsed once, and
    the terms add left to right."""
    try:
        return float(text)
    except ValueError:
        pass
    parts = _TERM_SIGN.split(text.strip().replace(" ", ""))
    terms = [_angle_term(part, text) for part in parts[::2]]
    if None in terms:
        raise InputError(f"cannot parse angle {text!r}")
    value = terms[0]
    for sign, term in zip(parts[1::2], terms[1:]):
        value = value + term if sign == "+" else value - term
    return value


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
    endpoints included; count lies in 1..100000 and is at most the
    stop - start + 1 integers, checked before any allocation, and every
    point is below 2**63, as the walk takes them as int64 powers."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError("--n-range wants start:stop:count")
    try:
        start, stop, count = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad --n-range {text!r}") from exc
    if start < 2 or stop < start or not 1 <= count <= stop - start + 1:
        raise InputError(f"bad --n-range {text!r}")
    if count > 10 ** 5:
        raise InputError(f"--n-range count must lie in 1..100000, got {count}")
    out = [start] if count == 1 else sorted(
        {int(round(x)) for x in np.geomspace(start, min(stop, 2 ** 63), count)} | {start, stop})
    if out[-1] >= 2 ** 63:   # the stop, or a float point rounded up to 2**63
        raise InputError(f"--n-range points must stay below 2**63, got {text!r}")
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
        if not 1 <= count <= 10 ** 5:   # one stacked fig4 pass holds every point
            raise InputError(f"grid count must lie in 1..100000, got {count}")
        with np.errstate(over="ignore", invalid="ignore"):   # fig4 refuses non-finite points
            return [float(x) for x in np.linspace(start, stop, count)]
    return parse_angle_list(text)


def _write_csv(args, header: str, lines, config: dict) -> None:
    """Write the config comment, the header and ``lines`` (rows ending in a
    newline, streamed) to --out or stdout.  Every value is computed before
    the call, so a run that fails writes nothing."""
    head = "# config: " + " ".join(f"{k}={v}" for k, v in sorted(config.items()))
    path, out_dir = args.out, os.environ.get(OUT_DIR_ENV)
    if path and out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    try:
        out = (open(path, "w", encoding="utf-8", newline="\n") if path
               else contextlib.nullcontext(sys.stdout))
    except OSError as exc:   # only the open: a BrokenPipeError while writing is an OSError too
        raise InputError(f"cannot write --out {path}: {exc.strerror}") from None
    with out as fh:
        fh.write(f"{head}\n{header}\n")
        fh.writelines(lines)


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
    spec, flag = verdict.spectrum, int(verdict.is_macroscopic)
    lines = (f"{idx},{lam.real:.17g},{lam.imag:.17g},{abs(lam):.17g},{spec.unit_dim},{flag}\n"
             for idx, lam in enumerate(spec.values))
    _write_csv(args, "index,eig_re,eig_im,modulus,unit_dimension,is_macroscopic",
               lines, _config_of(args))
    return 0


def cmd_fig3(args) -> int:
    a_list = parse_angle_list(args.a_list)
    n_list = parse_n_range(args.n_range)
    obs = _resolve_bloch(args)
    c0 = parse_complex(args.c0) if args.c0 is not None else 1 / np.sqrt(2)
    c1 = parse_complex(args.c1) if args.c1 is not None else 1 / np.sqrt(2)
    oracle_ns = [n for n in n_list if n <= args.oracle_cap]
    # Refusals keep the order of a loop over the angles (gate, variances,
    # oracle column): a non-finite angle refuses at its gate, and an oracle
    # column past the state-vector cap at the first angle, so only the angles
    # before either are walked, as one stack.
    walked = next((i for i, a in enumerate(a_list) if not np.isfinite(a)), len(a_list))
    if oracle_ns and oracle_ns[-1] > oracle.DEFAULT_CAP:
        walked = min(walked, 1)
    sweeps = macroscopicity.variance_sweep(controlled_rotation(np.array(a_list[:walked])),
                                           (c0, c1), obs, n_list)
    lines = []
    for a in a_list[:walked]:
        gate = controlled_rotation(a) if oracle_ns else None
        for entry in next(sweeps):   # the rows of one angle, released after its loop
            n, slope = entry["n"], entry["slope"]
            oracle_var = ""
            if n <= args.oracle_cap:
                state = oracle.sweep(gate, ChainSpec(n, c0, c1))
                oracle_var = f"{oracle.collective_variance(state, obs):.17g}"
            slope = "" if slope is None else f"{slope:.17g}"
            lines.append(f"{a:.17g},{n},{entry['variance']:.17g},{slope},{oracle_var}\n")
    if walked < len(a_list):
        controlled_rotation(a_list[walked])   # the non-finite angle refuses here
    _write_csv(args, "a,n,variance,slope,oracle_variance", lines, _config_of(args))
    return 0


def cmd_fig4(args) -> int:
    grid = parse_grid(args.chi_t)
    theta = parse_angle(args.theta) if args.theta is not None else None
    lines = (f"{r['chi_t']:.17g},{r['m']:.17g},{r['v']:.17g},{r['f_half']:.17g},"
             f"{'' if r['f_one'] is None else format(r['f_one'], '.17g')},"
             f"{r['below_separable']:d},{r['below_pairwise']:d}\n"
             for r in squeezing.fig4_curve(grid, theta=theta))
    _write_csv(args, "chi_t,m,v,f_half,f_one,below_separable,below_pairwise",
               lines, _config_of(args))
    return 0


def cmd_neff(args) -> int:
    param_sets = [""] if args.gate_file else args.params or [""]
    specs = [("file" if args.gate_file else params.replace(",", ";"),
              _resolve_gate(args, params)) for params in param_sets]
    chain = _resolve_chain(args, 2)
    lines = []
    for label, gate in specs:
        report = macroscopicity.neff_optimize(gate, chain)
        nx, ny, nz = report.best_direction
        lines.append(f"{gate.family},{label},{report.unit_dimension},"
                     f"{report.neff_coeff:.17g},{nx:.17g},{ny:.17g},{nz:.17g}\n")
    _write_csv(args, "family,params,unit_dimension,neff_coeff,nx,ny,nz", lines,
               _config_of(args, params=";".join(label for label, _ in specs)))
    return 0


def cmd_correlate(args) -> int:
    if args.n > CORRELATE_MAX_N:
        raise InputError(f"--n must be at most {CORRELATE_MAX_N}, got {args.n}")
    gate = _resolve_gate(args, args.params)
    chain = _resolve_chain(args, args.n)
    ts = build_transfer(gate, chain)
    obs = _resolve_bloch(args)
    pairs = (np.argwhere(np.arange(args.n)[:, None] < np.arange(args.n)) + 1   # every m < k
             if args.n <= PAIR_CAP else np.arange(1, args.n)[:, None] + (0, 1))   # (m, m + 1)
    one, two = correlators.site_correlations(ts, obs, args.n, pairs)
    ms, ks = pairs.T.tolist()
    lines = itertools.chain(
        (f"one,{m},,{value:.17g}\n" for m, value in enumerate(one, start=1)),
        (f"two,{m},{k},{value:.17g}\n" for m, k, value in zip(ms, ks, two)))
    _write_csv(args, "kind,m,n,value", lines, _config_of(args))
    return 0


def cmd_oracle_check(args) -> int:
    if args.count < 1:
        raise InputError(f"--count must be positive, got {args.count}")
    if args.count > ORACLE_MAX_COUNT:
        raise InputError(f"--count must be at most {ORACLE_MAX_COUNT}, got {args.count}")
    if args.n > oracle.DEFAULT_CAP:
        raise InputError(f"--n must be at most {oracle.DEFAULT_CAP}, got {args.n}")
    gates = [random_gate(args.seed + k) for k in range(args.count)]
    chain = _resolve_chain(args, args.n)
    pairs = np.argwhere(np.arange(args.n)[:, None] < np.arange(args.n)) + 1   # every m < k
    rng = np.random.default_rng(args.seed)
    lines = []
    all_pass = True
    for seed, gate in enumerate(gates, start=args.seed):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        obs = LocalObservable.from_bloch(direction)
        ts = build_transfer(gate, chain)
        state = oracle.sweep(gate, chain)
        one, two = correlators.site_correlations(ts, obs, args.n, pairs)
        dev_one = max(abs(value - oracle.expect_local(state, obs, m))
                      for m, value in enumerate(one, start=1))
        dev_two = max(abs(value - oracle.expect_pair(state, obs, m, k2))
                      for (m, k2), value in zip(pairs.tolist(), two))
        dev_mean = abs(correlators.collective_mean(ts, obs, args.n)
                       - oracle.collective_mean(state, obs))
        dev_var = abs(correlators.additive_variance_exact(ts, obs, args.n).total
                      - oracle.collective_variance(state, obs))
        ok = max(dev_one, dev_two, dev_mean, dev_var) <= args.tol
        all_pass = all_pass and ok
        lines.append(f"{seed},{args.n},{dev_one:.17g},{dev_two:.17g},{dev_mean:.17g},"
                     f"{dev_var:.17g},{'pass' if ok else 'fail'}\n")
    _write_csv(args, "seed,n,max_dev_one,max_dev_two,max_dev_mean,max_dev_var,status",
               lines, _config_of(args))
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
                   help=f"chain length, at most {CORRELATE_MAX_N}; above {PAIR_CAP} "
                        f"only nearest-neighbour pairs are written")
    p.add_argument("--bloch", help="observable direction nx,ny,nz (default z)")
    add_common(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("oracle-check",
                       help="transfer formulas vs state-vector oracle on random gates")
    p.add_argument("--n", type=int, default=8, help="chain length (<= 16)")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--count", type=int, default=20,
                   help=f"number of random gates, at most {ORACLE_MAX_COUNT}")
    add_common(p)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0 < args.tol < np.inf:   # every command takes --tol
            raise InputError(f"--tol must be positive and finite, got {args.tol:g}")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToleranceError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does, and has every row
        # it asked for; stdout goes to devnull so the flush at exit is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
