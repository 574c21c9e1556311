"""Seeded grammar fuzz of the CLI, run in process.

About 1000 argv over all six commands are drawn from pools of hostile
tokens (signed zeros, subnormals, overflowing and non-finite numbers, angles
such as ``pi/0``, complex tokens such as ``nanj``, Bloch lists of 2-4
components, integer fields past int64), each pool biased towards sane values
so that every command also runs to completion.  About 400 gate files of both
forms, mutated from valid ones, go through ``spectrum --gate-file``.  Every
case keeps one contract:

- the exit code is 0, 2 or 3, and nothing but argparse's ``SystemExit(2)``
  leaves ``cli.main``;
- no Python warning is raised;
- exit 0 writes no stderr, and an exit 2 or 3 from ``main`` writes exactly
  one line;
- the case finishes within ``CASE_SECONDS``;
- a matrix gate file exits 0 only if it holds 4 rows of 4 entries, each a
  pair of finite real numbers.

The seed is fixed, so every run replays the same cases.
"""

import json
import sys
import time
import warnings

import numpy as np

from chainsweep import cli, gates

SEED = 2017
CASE_SECONDS = 2.0
ARGV_PER_COMMAND = 170
GATE_FILES = 400

NUMBERS = ("0", "-0", "5e-324", "1e200", "-1e200", "1e-200", "1.8e308", "nan", "inf", "-inf")
ANGLES = NUMBERS + ("pi/0", "pi+inf", "pi-nan", "2pi/0.0", "1x", "", "pi//2", "--pi")
COMPLEXES = NUMBERS + ("nanj", "1+", "1e200j", "infj", "abc", "", "1e308+1e308j")
INTEGERS = ("1.5", "99999999999999999999", "-99999999999999999999", "-1", "0", "nan", "")
N_RANGES = ("4:9223372036854775807:3", "4:9223372036854775808:3", "10:100000000000000000000:3",
            "9223372036854775808:9223372036854775808:1", "4:100000000000000:1000000000000",
            "1:5:2", "8:4:2", "4:100", "a:b:c", "4:8:0", "4:8:1.5", "4:8:99999999999999999999")
GRIDS = ("0.1:inf:3", "0.1:0.5:x", "0.1:0.2", "-1e308:1e308:3", "0.3,,0.5", "pi/0:1:2",
         "0.1:0.5:1000000000000", "0.1:0.5:0", "0.1:0.5:1.5", "nan", "1:2:3:4")

SANE_ANGLES = ("pi", "pi-0.4", "0.7", "pi/2", "1", "-0.3", "3pi/4", "0.7+pi/2-0.1")
SANE_PARAMS = {"weyl": ("0.7,pi/2,pi/2", "1,2,3", "0.3,0.6,0.9"),
               "controlled_rotation": ("pi", "pi-0.4", "3pi/4"),
               "squeezing": ("0.5", "0.02", "1.5"),
               "macroscopic_family": ("0.3,1,2,0", "0.5,0.2,1.1,4", "0,1,2,1")}
ARITY = {family: len(params[0].split(",")) for family, params in SANE_PARAMS.items()}
SANE_AMPLITUDES = ((None, None), ("0.6", "0.8j"), ("1", "0"), ("0", "1"), ("0.6+0.8j", "0"),
                   ("0.7071067811865476", "0.7071067811865476"))


def _pick(rng, sane, hostile=(), p_sane=0.8):
    pool = sane if not hostile or rng.random() < p_sane else hostile
    return pool[rng.integers(len(pool))]


def _maybe(rng, p=0.5) -> bool:
    return rng.random() < p


def _list(rng, pool, low, high) -> str:
    return ",".join(pool[i] for i in rng.integers(len(pool), size=rng.integers(low, high + 1)))


def _bloch(rng, p_sane=0.8) -> str:
    if rng.random() < p_sane:
        return _list(rng, ("1", "0", "0.5", "-1", "1e-200", "1e200"), 3, 3)
    return _list(rng, NUMBERS + ("1", "x"), 2, 4)


def _flag(name, value) -> list[str]:
    # the "=" form keeps a leading "-" in the value away from argparse
    return [] if value is None else [f"--{name}={value}"]


def _gate_flags(rng) -> list[str]:
    family = _pick(rng, tuple(SANE_PARAMS), ("custom", "conjugated", "nope", ""), 0.9)
    if family in SANE_PARAMS and _maybe(rng, 0.8):
        params = _pick(rng, SANE_PARAMS[family])
    else:
        params = _list(rng, SANE_ANGLES + ANGLES, 0, 5)
    argv = _flag("gate", family) + _flag("params", params)
    if _maybe(rng, 0.05):
        argv += _flag("unitarity-tol", _pick(rng, NUMBERS + ("-1",)))
    return argv


def _common(rng, amplitudes=True) -> list[str]:
    argv = _flag("tol", _pick(rng, (None, "1e-9", "1e-6"), NUMBERS + ("-1", "abc"), 0.9))
    if amplitudes:
        c0, c1 = (_pick(rng, SANE_AMPLITUDES) if _maybe(rng, 0.85)
                  else (_pick(rng, COMPLEXES), _pick(rng, COMPLEXES + (None,))))
        argv += _flag("c0", c0) + _flag("c1", c1)
    return argv


def _spectrum(rng):
    return ["spectrum"] + _gate_flags(rng) + _common(rng, amplitudes=_maybe(rng, 0.03))


def _fig3(rng):
    argv = ["fig3"]
    if _maybe(rng, 0.9):
        argv += _flag("a-list", _list(rng, SANE_ANGLES, 1, 3) if _maybe(rng, 0.8)
                      else _list(rng, SANE_ANGLES + ANGLES, 1, 3))
    argv += _flag("n-range", _pick(rng, ("4:100:5", "4:8:2", "2:2:1", "10:1000:4",
                                         "4:1000000000000000000:3"), N_RANGES))
    argv += _flag("oracle-cap", _pick(rng, (None, "0", "4", "12"), INTEGERS + ("16", "2000")))
    argv += _flag("bloch", _bloch(rng) if _maybe(rng, 0.6) else None)
    return argv + _common(rng)


def _fig4(rng):
    grid = (_pick(rng, ("0.1:1.2:5", "0.3", "0.3,0.5", "0.02:1.5:3", "pi/4"), GRIDS + ANGLES)
            if _maybe(rng, 0.9) else None)
    theta = _pick(rng, (None, None, "0.3", "pi/4"), ANGLES)
    return ["fig4"] + _flag("chi-t", grid) + _flag("theta", theta) + _common(rng, False)


def _neff(rng):
    argv = ["neff"] + _gate_flags(rng)
    if _maybe(rng, 0.2):
        argv += _gate_flags(rng)[-1:]   # a repeated --params (or --unitarity-tol)
    return argv + _common(rng)


def _correlate(rng):
    n = _pick(rng, ("1", "2", "5", "12", "33", "40") * 8 + ("10000",),
              INTEGERS + ("1000001", "10000000000"))
    argv = ["correlate"] + _gate_flags(rng) + _flag("n", n)
    return argv + _flag("bloch", _bloch(rng) if _maybe(rng, 0.6) else None) + _common(rng)


def _oracle_check(rng):
    argv = ["oracle-check", "--count", _pick(rng, ("1", "2"), ("0", "-1", "1.5", "nan", ""))]
    argv += _flag("n", _pick(rng, ("2", "3", "6", "8"), INTEGERS + ("17", "1500")))
    argv += _flag("seed", _pick(rng, (None, "0", "5", "7"), ("-1", "1.5", "99999999999999999999")))
    return argv + _common(rng)


COMMANDS = {"spectrum": _spectrum, "fig3": _fig3, "fig4": _fig4, "neff": _neff,
            "correlate": _correlate, "oracle-check": _oracle_check}


def _run(argv, capsys) -> tuple[int, str, list[str]]:
    """(exit code, stderr, contract violations) of one in-process run."""
    capsys.readouterr()
    problems = []
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
            from_main = True
        except SystemExit as exc:   # argparse's usage error
            code, from_main = exc.code, False
            if code != 2:
                problems.append(f"SystemExit({code!r})")
        except Exception as exc:   # noqa: BLE001 -- any escape breaks the contract
            code, from_main = None, False
            problems.append(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    if caught:
        problems.append(f"warning: {caught[0].message}")
    if code not in (0, 2, 3):
        problems.append(f"exit {code!r}")
    if code == 0 and err:
        problems.append(f"exit 0 wrote stderr {err!r}")
    if from_main and code in (2, 3) and err.count("\n") != 1:
        problems.append(f"exit {code} wrote {err!r}")
    if elapsed > CASE_SECONDS:
        problems.append(f"took {elapsed:.2f} s")
    return code, err, problems


def _report(failures):
    return "\n".join(f"{case!r}: {'; '.join(problems)}" for case, problems in failures[:10])


def test_fuzz_argv_contract(capsys):
    rng = np.random.default_rng(SEED)
    failures, exits = [], {name: [] for name in COMMANDS}
    for _ in range(ARGV_PER_COMMAND):
        for name, draw in COMMANDS.items():
            argv = draw(rng)
            code, _, problems = _run(argv, capsys)
            exits[name].append(code)
            if problems:
                failures.append((argv, problems))
    assert not failures, f"{len(failures)} argv broke the contract:\n{_report(failures)}"
    for name, codes in exits.items():   # the pools still reach every command's result
        assert codes.count(0) >= len(codes) / 10, (name, codes.count(0))


# ---------------------------------------------------------------------------
# gate files
# ---------------------------------------------------------------------------

JSON_HOSTILE = (float("nan"), float("inf"), -float("inf"), 10 ** 400, -10 ** 400, True, False,
                None, "1", "", [1], [], {}, 1e308, 5e-324, -0.0, 0, 2.7)
ENTRY_HOSTILE = (1, 1.5, True, None, "a", "ab", "1,0", [], [1], [1, 0, 5], [0, 0, 0, 0], {},
                 {"re": 1, "im": 0}, ["1", "0"], [[1, 0]], [None, 0])
ROW_HOSTILE = (None, 1, 0.5, True, "abcd", {}, {"a": 1}, [], [[1, 0]])
MATRIX_HOSTILE = (0.5, "abcd", {"a": 1}, None, True, [], [[]], [None], [1], "")
RAW_FILES = (b"\xff\xfe{}", b"not json", b"[1, 2]", b"{}", b'{"matrix": [[[1, 0]]]',
             b'{"matrix": [[[1, 0]]]}' + b" garbage", b"", b"null", b'"matrix"')


def _holds_pairs(payload) -> bool:
    """The test's own reading of a loadable matrix: 4 rows of 4 entries,
    each a list of two finite JSON numbers (bools are no numbers)."""
    def real(x):
        return type(x) in (int, float) and -sys.float_info.max <= x <= sys.float_info.max
    rows = payload.get("matrix")
    return (isinstance(rows, list) and len(rows) == 4
            and all(isinstance(row, list) and len(row) == 4 for row in rows)
            and all(isinstance(e, list) and len(e) == 2 and real(e[0]) and real(e[1])
                    for row in rows for e in row))


def _mutate_matrix(rng, rows):
    where = rng.integers(4), rng.integers(4)
    kind = rng.integers(9)
    if kind == 0:
        return _pick(rng, MATRIX_HOSTILE)
    if kind == 1:
        rows[where[0]] = _pick(rng, ROW_HOSTILE)
    elif kind == 2:   # a row too few or too many, or an entry too few or too many
        _pick(rng, (lambda: rows.pop(where[0]), lambda: rows.append(list(rows[0])),
                    lambda: rows[where[0]].pop(), lambda: rows[where[0]].append([0, 0])))()
    elif kind == 3:
        rows[where[0]][where[1]] = _pick(rng, ENTRY_HOSTILE)
    elif kind == 4:
        rows[where[0]][where[1]][rng.integers(2)] = _pick(rng, JSON_HOSTILE)
    elif kind == 5:   # an [re, im, x] entry, one or all of them
        extra = _pick(rng, (5, 0, 0.5, None, "x"))
        for entry in ([rows[where[0]][where[1]]] if _maybe(rng) else
                      [entry for row in rows for entry in row]):
            entry.append(extra)
    elif kind == 6:   # off unitary, or loaded to its rounding
        rows[where[0]][where[1]][0] *= _pick(rng, (1 + 1e-3, 1 + 1e-15, 2.0))
    elif kind == 7:   # integral parts as JSON integers
        rows = [[[int(x) if float(x).is_integer() else x for x in entry] for entry in row]
                for row in rows]
    else:
        rows = rows[:rng.integers(5)]
    return rows


def _gate_file(rng) -> bytes:
    kind = rng.random()
    if kind < 0.05:
        return _pick(rng, RAW_FILES)
    if kind < 0.35:
        family = _pick(rng, tuple(SANE_PARAMS), ("custom", "nope", ["weyl"], None, 3, ""), 0.9)
        sane = [float(rng.uniform(0, 1)), float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
                int(rng.integers(5))][:ARITY.get(family, 4) if isinstance(family, str) else 4]
        params = (sane if _maybe(rng, 0.7) else
                  [_pick(rng, JSON_HOSTILE) for _ in range(rng.integers(6))]
                  if _maybe(rng, 0.8) else _pick(rng, ("0.7", 0.7, None, {})))
        payload = {"family": family, "params": params}
        if _maybe(rng, 0.1):
            payload.pop("params")
        return json.dumps(payload).encode()
    rows = [[[float(z.real), float(z.imag)] for z in row]
            for row in gates.random_gate(int(rng.integers(12))).matrix]
    for _ in range(0 if _maybe(rng, 0.3) else rng.integers(1, 3)):
        if not _holds_pairs({"matrix": rows}):
            break
        rows = _mutate_matrix(rng, rows)
    return json.dumps({"matrix": rows}).encode()


def test_fuzz_gate_file_contract(tmp_path, capsys):
    rng = np.random.default_rng(SEED + 1)
    path = tmp_path / "gate.json"
    argv = ["spectrum", "--gate-file", str(path)]
    failures, matrix_exits = [], []
    for _ in range(GATE_FILES):
        data = _gate_file(rng)
        path.write_bytes(data)
        code, err, problems = _run(argv, capsys)
        try:
            payload = json.loads(data)
        except ValueError:
            payload = None
        if isinstance(payload, dict) and "family" not in payload and "matrix" in payload:
            matrix_exits.append(code)
            if code == 0 and not _holds_pairs(payload):
                problems.append("a matrix that is not 4 rows of 4 [re, im] pairs loaded")
        if problems:
            failures.append((data[:200], problems))
    assert not failures, f"{len(failures)} gate files broke the contract:\n{_report(failures)}"
    # the mutations leave some files loadable and refuse others
    assert 0 < matrix_exits.count(0) < len(matrix_exits)
