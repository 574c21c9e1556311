import json
import os
import re

import numpy as np
import pytest

from chainsweep import cli, correlators, gates, macroscopicity, oracle
from chainsweep.transfer import ChainSpec, LocalObservable, build_transfer
from chainsweep.errors import InputError


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def _rows(out):
    lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,value", [
    ("pi", np.pi), ("-pi", -np.pi), ("pi/2", np.pi / 2), ("3pi/4", 3 * np.pi / 4),
    ("2pi", 2 * np.pi), ("0.7", 0.7), ("-0.25", -0.25), ("pi-0.1", np.pi - 0.1),
    ("pi+0.5", np.pi + 0.5), ("3*pi/2", 3 * np.pi / 2),
])
def test_parse_angle(text, value):
    assert abs(cli.parse_angle(text) - value) < 1e-15


def test_parse_angle_rejects_garbage():
    with pytest.raises(InputError):
        cli.parse_angle("two pies")


def _recursive_parse_angle(text):
    # the recursive parser the one-pass parse_angle replaced: it retries
    # every +/- split, so each unparseable term doubles its time
    token = text.strip().replace(" ", "")
    match = cli._PI_TOKEN.match(token)
    if match:
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
    try:
        return float(token)
    except ValueError:
        pass
    for pos in range(len(token) - 1, 0, -1):
        if token[pos] in "+-" and token[pos - 1] not in "eE+-":
            try:
                left = _recursive_parse_angle(token[:pos])
                right = _recursive_parse_angle(token[pos + 1:])
            except InputError:
                continue
            return left + right if token[pos] == "+" else left - right
    raise InputError(f"cannot parse angle {text!r}")


def _outcome(parse, text):
    try:
        return parse(text).hex()
    except InputError:
        return InputError


# every angle the README, the tests and the bench argv pass, then a seeded
# corpus of short tokens built from numbers, pi tokens, signs and junk
_DOC_ANGLES = (["pi", "pi-0.1", "pi-0.2", "pi-0.3", "pi-0.4", "pi/2", "pi-2e-5",
                "pi/0", "0.3", "0.7", "0.9", "0.4", "0.5", "0.02", "1.5", "-1", "7",
                "0", "1", "2", "1.0", "1.2", "1.3", "0.0", "0.7+pi/2-0.1"]
               + [format(x, ".17g") for x in cli.parse_grid("0.02:1.5:75")]
               # texts that float() reads whole, and one it refuses
               + ["1_000", " 0.5 ", "-nan", "Infinity", "1E+2", "\u0661\u0662", "0x1p-2"])
_PIECES = ["pi", "2", "0.5", ".5", "3pi/4", "pi/2", "2*pi", "pi/0", "1e-5", "1E+2",
           "e", "E", "+", "-", "*", "/", ".", "x", "1", "0", "inf"]


def test_parse_angle_matches_recursive_parser():
    # the same float bits, or an InputError from both
    rng = np.random.default_rng(0)
    corpus = ["".join(rng.choice(_PIECES, size=int(rng.integers(1, 7))))
              for _ in range(20000)]
    parsed = 0
    for text in _DOC_ANGLES + corpus:
        want = _outcome(_recursive_parse_angle, text)
        assert _outcome(cli.parse_angle, text) == want, text
        parsed += want is not InputError
    assert parsed > 2000


def test_parse_angle_parses_each_term_once(monkeypatch):
    # each of its 20 terms once: linear, where the recursive parser made
    # about 2**20 term parses
    calls = []
    term = cli._angle_term
    monkeypatch.setattr(cli, "_angle_term", lambda *a: calls.append(a) or term(*a))
    with pytest.raises(InputError):
        cli.parse_angle("-".join(["1x"] * 20))
    assert len(calls) == 20


def test_parse_angle_reads_a_float_text_whole(monkeypatch):
    # a text that float() reads is one float() call, never split into terms
    calls = []
    term = cli._angle_term
    monkeypatch.setattr(cli, "_angle_term", lambda *a: calls.append(a) or term(*a))
    assert [cli.parse_angle(t) for t in ("0.7", " -1E+2 ", "1_000")] == [0.7, -100.0, 1000.0]
    assert calls == []
    assert cli.parse_angle("0.7+pi/2") == 0.7 + np.pi / 2 and len(calls) == 2


def test_parse_n_range():
    out = cli.parse_n_range("4:1000:5")
    assert out[0] == 4 and out[-1] == 1000
    assert out == sorted(set(out))
    with pytest.raises(InputError):
        cli.parse_n_range("10:2:3")


def test_parse_n_range_keeps_points_in_int64():
    # a stop of at most 2**62 always fits; past int64 the walk refused its
    # powers with an internal message, or np.geomspace raised TypeError
    assert cli.parse_n_range(f"4:{2 ** 62}:3")[-1] == 2 ** 62
    assert cli.parse_n_range(f"{2 ** 63 - 1024}:{2 ** 63 - 1024}:1") == [2 ** 63 - 1024]
    for text in (f"4:{2 ** 63 - 1}:3", f"4:{10 ** 20}:3", f"{2 ** 63}:{2 ** 63}:1"):
        with pytest.raises(InputError, match=r"below 2\*\*63"):
            cli.parse_n_range(text)


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_parser_reuse_keeps_no_state(capsys):
    # the appended --params list starts empty on every call
    code, out = run_cli(["neff", "--gate", "weyl", "--params", "0.3,pi/2,pi/2",
                         "--params", "0.7,pi/2,pi/2"], capsys)
    assert code == 0 and len(_rows(out)[1]) == 2
    code, out = run_cli(["neff", "--gate", "weyl", "--params", "0.9,pi/2,pi/2"],
                        capsys)
    assert code == 0 and len(_rows(out)[1]) == 1
    correlate = ["correlate", "--gate", "squeezing", "--params", "0.5", "--n", "12",
                 "--bloch", "0.3,0.4,0.5", "--c0", "0.6", "--c1", "0.8j"]
    cli.build_parser.cache_clear()
    first = run_cli(correlate, capsys)
    assert run_cli(["spectrum", "--gate", "squeezing", "--params", "0.3"],
                   capsys)[0] == 0
    assert run_cli(correlate, capsys) == first


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_spectrum_degenerate_weyl(capsys):
    code, out = run_cli(["spectrum", "--gate", "weyl", "--params", "0.7,pi/2,pi/2"], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert rows[0][header.index("unit_dimension")] == "2"
    assert rows[0][header.index("is_macroscopic")] == "1"


def test_spectrum_identity(capsys):
    code, out = run_cli(["spectrum", "--gate", "weyl", "--params", "0,0,0"], capsys)
    header, rows = _rows(out)
    assert code == 0
    assert rows[0][header.index("unit_dimension")] == "1"


def test_spectrum_squeezing_eigenvalues(capsys):
    code, out = run_cli(["spectrum", "--gate", "squeezing", "--params", "0.5"], capsys)
    header, rows = _rows(out)
    got = sorted(float(r[header.index("eig_re")]) for r in rows)
    s = np.sin(0.5)
    assert np.allclose(got, sorted([1.0, s, -s ** 2, -s]), atol=1e-10)


def test_cli_determinism(capsys):
    args = ["fig4", "--chi-t", "0.1:1.2:6"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_cli_determinism_across_processes():
    import subprocess
    import sys
    cmd = [sys.executable, "-m", "chainsweep.cli", "spectrum",
           "--gate", "macroscopic_family", "--params", "0.4,0.5,1.0,7"]
    runs = [subprocess.run(cmd, capture_output=True, text=True) for _ in range(2)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.strip()


def test_reader_closing_stdout_early_exits_quietly():
    # `chainsweep correlate ... | head -1`: the streamed rows outgrow the pipe
    # buffer, so the writer meets a closed pipe
    import subprocess
    import sys
    cmd = [sys.executable, "-m", "chainsweep.cli", "correlate", "--gate", "weyl",
           "--params", "0.7,pi/2-0.1,pi/2", "--n", "20000"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"# config: ")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_fig3_cnot_squares(capsys):
    code, out = run_cli(["fig3", "--a-list", "pi", "--n-range", "4:64:4"], capsys)
    assert code == 0
    header, rows = _rows(out)
    for row in rows:
        n = int(row[header.index("n")])
        var = float(row[header.index("variance")])
        assert abs(var - n ** 2) < 1e-9 * n ** 2


def test_fig3_cnot_squares_at_large_n(capsys):
    code, out = run_cli(["fig3", "--a-list", "pi", "--n-range",
                         "1000000:100000000:3"], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert [int(row[header.index("n")]) for row in rows] == [10 ** 6, 10 ** 7, 10 ** 8]
    for row in rows:
        n = int(row[header.index("n")])
        assert abs(float(row[header.index("variance")]) - n ** 2) <= 1e-9 * n ** 2


def test_fig3_absurd_chain_length_exit_code(capsys):
    # the error estimate of an N^2 variance grows like N eps relative
    code, _ = run_cli(["fig3", "--a-list", "pi", "--n-range",
                       "1000000000000:1000000000000:1"], capsys)
    assert code == 3


def test_fig3_variance_at_n_1e18_is_the_saturated_value(capsys):
    # the exact variance of this rotation saturates at 1875.0692422523...;
    # dropping the shifted sum's squared mean printed 2516.98 here
    code, out = run_cli(["fig3", "--a-list", "pi-0.4", "--n-range",
                         "1000000000000000000:1000000000000000000:1"], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert len(rows) == 1
    assert abs(float(rows[0][header.index("variance")]) - 1875.0692422523) <= 1e-9


def test_fig3_mixed_chain_lengths_exit_code(capsys):
    # one length beyond double precision refuses the whole sweep, no rows
    code, out = run_cli(["fig3", "--a-list", "pi", "--n-range",
                         "1000:1000000000000:3"], capsys)
    assert code == 3 and out == ""


def test_fig3_refuses_a_mixed_list_at_its_first_failure(capsys):
    # pi - 0.4 runs to 1e18; pi refuses at 1e12, and no row of either is written
    code = cli.main(["fig3", "--a-list", "pi-0.4,pi", "--n-range", "1000:1000000000000:3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("numerical failure: collective variance: estimated error "
                            "7.105e+21 exceeds 1.000e+19; the chain is too long for "
                            "double precision\n")


@pytest.mark.parametrize("a_list,n_range,extra,code,err", [
    ("pi,nan", "1000000000000:1000000000000:1", [], 3, "numerical failure: collective"),
    ("pi-0.4,nan", "1000000000000:1000000000000:1", [], 2, "error: matrix has non-finite"),
    ("nan,pi", "1000000000000:1000000000000:1", ["--c0=nan"], 2,
     "error: matrix has non-finite"),
    ("pi-0.4,pi", "20:1000000000000:3", ["--oracle-cap", "2000"], 2, "error: N = 20 exceeds"),
    ("pi,pi-0.4", "20:1000000000000:3", ["--oracle-cap", "2000"], 3,
     "numerical failure: collective"),
])
def test_fig3_refusals_keep_the_angle_order(a_list, n_range, extra, code, err, capsys):
    # as a loop over the angles would refuse: each angle's gate, then its
    # variances, then its oracle column, which refuses past the cap at every angle
    assert cli.main(["fig3", "--a-list", a_list, "--n-range", n_range] + extra) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(err)


def test_fig3_oracle_column(capsys):
    code, out = run_cli(["fig3", "--a-list", "pi-0.3", "--n-range", "4:10:3"], capsys)
    header, rows = _rows(out)
    for row in rows:
        var = float(row[header.index("variance")])
        oracle_var = float(row[header.index("oracle_variance")])
        assert abs(var - oracle_var) < 1e-8


def test_fig4_flags(capsys):
    code, out = run_cli(["fig4", "--chi-t", "0.2,0.3,1.0"], capsys)
    assert code == 0
    header, rows = _rows(out)
    below = [r for r in rows if r[header.index("below_pairwise")] == "1"]
    assert below
    for row in rows:
        assert float(row[header.index("v")]) >= 0.0


def test_neff_weyl_sweep_column(capsys):
    code, out = run_cli(["neff", "--gate", "weyl",
                         "--params", "0.3,pi/2,pi/2",
                         "--params", "0.9,pi/2,pi/2"], capsys)
    assert code == 0
    header, rows = _rows(out)
    got = [float(r[header.index("neff_coeff")]) for r in rows]
    assert abs(got[0] - np.cos(0.3) ** 2) < 1e-8
    assert abs(got[1] - np.cos(0.9) ** 2) < 1e-8


def test_correlate_identity_constant(capsys):
    code, out = run_cli(["correlate", "--gate", "weyl", "--params", "0,0,0",
                         "--n", "6"], capsys)
    assert code == 0
    header, rows = _rows(out)
    for row in rows:
        assert abs(float(row[header.index("value")]) - 1.0) < 1e-12


def test_oracle_check_passes(capsys):
    code, out = run_cli(["oracle-check", "--n", "6", "--count", "4",
                         "--tol", "1e-8"], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert all(r[header.index("status")] == "pass" for r in rows)


def test_oracle_check_fails_at_absurd_tolerance(capsys):
    code, out = run_cli(["oracle-check", "--n", "5", "--count", "2",
                         "--tol", "1e-20"], capsys)
    assert code == 3


def test_oracle_check_count_cap_builds_no_gate(capsys, monkeypatch):
    # a --count past the cap is refused before the first random gate is
    # built, and --help states the cap
    def forbidden(seed):
        raise AssertionError("random gate built for a refused --count")

    monkeypatch.setattr(cli, "random_gate", forbidden)
    cap = cli.ORACLE_MAX_COUNT
    code = cli.main(["oracle-check", "--count", str(cap + 1)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --count must be at most {cap}, got {cap + 1}\n"
    with pytest.raises(SystemExit):
        cli.main(["oracle-check", "--help"])
    assert f"number of random gates, at most {cap}" in " ".join(capsys.readouterr().out.split())


# ---------------------------------------------------------------------------
# CSV format: every row is the library values, formatted cell by cell
# ---------------------------------------------------------------------------

def _table(out):
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    return lines[1], lines[2:]


def test_spectrum_csv_is_the_formatted_rows(capsys, csv_row):
    code, out = run_cli(["spectrum", "--gate", "weyl", "--params", "0.7,pi/2,pi/2"], capsys)
    verdict = macroscopicity.classify_macroscopic(
        gates.weyl_gate(0.7, np.pi / 2, np.pi / 2), tol=1e-9)
    spec = verdict.spectrum
    assert code == 0
    assert _table(out) == (
        "index,eig_re,eig_im,modulus,unit_dimension,is_macroscopic",
        [csv_row(idx, lam.real, lam.imag, abs(lam), spec.unit_dim, verdict.is_macroscopic)
         for idx, lam in enumerate(spec.values)])


def test_fig3_csv_is_the_formatted_rows(tmp_path, capsys, monkeypatch, csv_row):
    argv = ["fig3", "--a-list", "pi-0.3,pi", "--n-range", "4:40:4", "--oracle-cap", "8"]
    code, out = run_cli(argv, capsys)
    obs = LocalObservable.from_bloch([0.0, 0.0, 1.0])
    plus = (1 / np.sqrt(2), 1 / np.sqrt(2))
    want = []
    for a in (np.pi - 0.3, np.pi):
        gate = gates.controlled_rotation(a)
        for entry in macroscopicity.variance_sweep(gate, plus, obs, [4, 9, 19, 40]):
            n = entry["n"]
            oracle_var = None
            if n <= 8:
                oracle_var = oracle.collective_variance(
                    oracle.sweep(gate, ChainSpec(n, *plus)), obs)
            want.append(csv_row(a, n, entry["variance"], entry["slope"], oracle_var))
    assert code == 0
    assert _table(out) == ("a,n,variance,slope,oracle_variance", want)
    # the first slope of each angle and the oracle column above the cap are empty
    assert [line.split(",")[3] == "" for line in want] == [True, False, False, False] * 2
    assert [line.endswith(",") for line in want] == [False, True, True, True] * 2
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    assert run_cli(argv + ["--out", "fig3.csv"], capsys) == (0, "")
    assert (tmp_path / "fig3.csv").read_bytes() == out.encode()


def test_neff_csv_is_the_formatted_rows(capsys, csv_row):
    code, out = run_cli(["neff", "--gate", "weyl", "--params", "0.3,pi/2,pi/2",
                         "--params", "0.7,pi/2,pi/2", "--c1", "0.8j", "--c0", "0.6"], capsys)
    want = []
    for alpha, label in ((0.3, "0.3;pi/2;pi/2"), (0.7, "0.7;pi/2;pi/2")):
        report = macroscopicity.neff_optimize(gates.weyl_gate(alpha, np.pi / 2, np.pi / 2),
                                              ChainSpec(2, 0.6 + 0j, 0.8j))
        want.append(csv_row("weyl", label, report.unit_dimension, report.neff_coeff,
                            *report.best_direction))
    assert code == 0
    assert _table(out) == ("family,params,unit_dimension,neff_coeff,nx,ny,nz", want)


@pytest.mark.parametrize("n", [5, 40])
def test_correlate_csv_is_the_formatted_rows(n, tmp_path, capsys, monkeypatch, csv_row):
    # every pair up to the pair cap, nearest neighbours above it
    argv = ["correlate", "--gate", "weyl", "--params", "0.7,pi/2-0.1,pi/2", "--n", str(n),
            "--bloch", "1,1,0", "--c0=0.6", "--c1=0.8j"]
    code, out = run_cli(argv, capsys)
    ts = build_transfer(gates.weyl_gate(0.7, np.pi / 2 - 0.1, np.pi / 2),
                        ChainSpec(n, 0.6 + 0j, 0.8j))
    pairs = [(m, k) for m in range(1, n + 1) for k in range(m + 1, n + 1)
             if n <= cli.PAIR_CAP or k == m + 1]
    one, two = correlators.site_correlations(
        ts, LocalObservable.from_bloch([1.0, 1.0, 0.0]), n, pairs)
    want = [csv_row("one", m, None, value) for m, value in enumerate(one, start=1)]
    want += [csv_row("two", m, k, value) for (m, k), value in zip(pairs, two)]
    assert code == 0
    assert _table(out) == ("kind,m,n,value", want)
    assert want[0].startswith("one,1,,")
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    assert run_cli(argv + ["--out", "corr.csv"], capsys) == (0, "")
    assert (tmp_path / "corr.csv").read_bytes() == out.encode()


@pytest.mark.parametrize("tol,code", [(1e-8, 0), (1e-20, 3)])
def test_oracle_check_csv_is_the_formatted_rows(tol, code, capsys, csv_row):
    # a failed check still writes its whole table before exiting 3
    n = 5
    got, out = run_cli(["oracle-check", "--n", str(n), "--count", "2", "--seed", "3",
                        "--tol", str(tol)], capsys)
    chain = ChainSpec(n, 1 + 0j, 0j)
    pairs = [(m, k) for m in range(1, n + 1) for k in range(m + 1, n + 1)]
    rng = np.random.default_rng(3)
    want = []
    for seed in (3, 4):
        gate = gates.random_gate(seed)
        direction = rng.standard_normal(3)
        obs = LocalObservable.from_bloch(direction / np.linalg.norm(direction))
        ts, state = build_transfer(gate, chain), oracle.sweep(gate, chain)
        one, two = correlators.site_correlations(ts, obs, n, pairs)
        devs = [max(abs(v - oracle.expect_local(state, obs, m))
                    for m, v in enumerate(one, start=1)),
                max(abs(v - oracle.expect_pair(state, obs, m, k))
                    for (m, k), v in zip(pairs, two)),
                abs(correlators.collective_mean(ts, obs, n)
                    - oracle.collective_mean(state, obs)),
                abs(correlators.additive_variance_exact(ts, obs, n).total
                    - oracle.collective_variance(state, obs))]
        want.append(csv_row(seed, n, *devs, "pass" if max(devs) <= tol else "fail"))
    assert got == code
    assert _table(out) == (
        "seed,n,max_dev_one,max_dev_two,max_dev_mean,max_dev_var,status", want)


def test_asymptotic_refusal_exits_3_with_no_output(capsys, monkeypatch):
    # no shipped gate reaches it: an inflated safety factor makes every
    # asymptotic coefficient's estimate exceed its bound
    monkeypatch.setattr(correlators, "_ASYM_SAFETY", 1e30)
    code = cli.main(["fig4", "--chi-t", "0.2,0.5"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numerical failure: asymptotic variance: ")
    assert "spectral gap" in captured.err


def test_gate_file_input(tmp_path, capsys):
    path = tmp_path / "gate.json"
    gates.save_gate(gates.weyl_gate(0.7, np.pi / 2, np.pi / 2), path)
    code, out = run_cli(["spectrum", "--gate-file", str(path)], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert rows[0][header.index("unit_dimension")] == "2"


def test_bad_gate_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = {"matrix": [[[1.5 if i == j else 0.0, 0.0] for j in range(4)]
                          for i in range(4)]}
    path.write_text(json.dumps(payload))
    code, _ = run_cli(["spectrum", "--gate-file", str(path)], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["fig4", "--chi-t", "0.5", "--c0", "0", "--c1", "1"],
    ["spectrum", "--gate", "squeezing", "--params", "0.5", "--c0", "0.6"],
])
def test_amplitude_flags_rejected_where_unused(argv, capsys):
    # fig4 and spectrum do not depend on the first-site amplitudes
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--c" in capsys.readouterr().err


def test_missing_gate_exit_code(capsys):
    code, _ = run_cli(["spectrum"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["correlate", "--gate", "squeezing", "--params", "0.5", "--n", "4", "--bloch", "1,x,0"],
    ["correlate", "--gate", "squeezing", "--params", "0.5", "--n", "4", "--bloch", "1,0"],
    ["correlate", "--gate", "squeezing", "--params", "0.5", "--n", "4", "--bloch", "1,0,0,1"],
    ["fig3", "--a-list", "pi", "--n-range", "4:8:2", "--bloch", "1,x,0"],
    ["fig3", "--a-list", "pi", "--n-range", "4:8:2", "--bloch", "1,0"],
    ["fig3", "--a-list", "pi", "--n-range", "4:8:2", "--bloch", "1,0,0,1"],
    ["fig4", "--chi-t", "0.1:0.5:x"],
    ["spectrum", "--gate", "weyl", "--params", "pi/0,pi/2,pi/2"],
    ["fig4", "--chi-t", "0.3:pi/0:3"],
    ["fig4", "--chi-t", "0.1:0.5:1000000000000"],
    ["fig3", "--a-list", "pi", "--n-range", "10:20:1000000000000"],
    ["oracle-check", "--seed", "-1", "--count", "1"],
    ["oracle-check", "--seed", "-1", "--count", "0"],
    ["spectrum", "--gate", "macroscopic_family", "--params", "0.3,1,2,-1"],
    ["spectrum", "--gate", "controlled_rotation", "--params", "pi-0.3", "--tol", "inf"],
    ["spectrum", "--gate", "controlled_rotation", "--params", "pi-0.3", "--tol", "nan"],
    ["spectrum", "--gate", "controlled_rotation", "--params", "pi-0.3", "--tol", "-1"],
    ["oracle-check", "--count", "1", "--tol", "nan"],
    ["oracle-check", "--count", "1", "--tol", "-1"],
    ["fig4", "--chi-t", "0.3", "--tol", "0"],
    ["correlate", "--gate", "squeezing", "--params", "0.5", "--n", "4", "--tol=-inf"],
    ["correlate", "--gate", "squeezing", "--params", "0.5", "--n", "10000000000"],
    ["fig3", "--a-list", "-".join(["1x"] * 40)],
    ["correlate", "--gate", "weyl", "--params", "0.7,pi/2,pi/2", "--n", "3", "--c0=nan"],
    ["fig3", "--a-list", "pi", "--n-range", "4:8:2", "--c1=nanj"],
    ["neff", "--gate", "weyl", "--params", "0.7,pi/2,pi/2", "--c0=nan"],
    # non-finite or overflowing angles and Bloch vectors: no RuntimeWarning
    # before the error line (the suite turns warnings into errors)
    ["neff", "--gate", "squeezing", "--params", "inf"],
    ["fig3", "--a-list", "inf", "--n-range", "4:8:2"],
    ["correlate", "--gate", "weyl", "--params", "0.7,inf,0", "--n", "4"],
    ["fig4", "--chi-t", "0.5", "--theta", "inf"],
    ["neff", "--gate", "weyl", "--params", "1e308,1e308,0"],
    ["fig3", "--a-list", "pi", "--n-range", "4:8:2", "--bloch", "inf,0,0"],
    ["fig4", "--chi-t=-1e308:1e308:3"],
    ["fig4", "--chi-t", "0.1:inf:3"],
    ["correlate", "--gate", "weyl", "--params", "0.7,0.1,0.2", "--n", "3",
     "--bloch", "1e309,0,0"],
    # past the state-vector cap, where 2^N x 16 B overflows a float
    ["oracle-check", "--n", "1500", "--count", "1"],
    ["fig3", "--a-list", "pi", "--n-range", "1100:1100:1", "--oracle-cap", "2000"],
    # amplitudes whose squares overflow a float: |c0|^2 + |c1|^2 reads inf
    ["neff", "--gate", "controlled_rotation", "--params", "3pi/4", "--c1=1e200"],
    # chain lengths past int64, as a stop or as a float point rounded up to 2**63
    ["fig3", "--n-range", "10:100000000000000000000:3"],
    ["fig3", "--a-list", "pi", "--n-range", "4:9223372036854775807:3"],
    ["fig3", "--a-list", "pi", "--n-range", "9223372036854775808:9223372036854775808:1"],
    # a completion seed that is not an integral value, never truncated
    ["neff", "--gate", "macroscopic_family", "--params", "0.3,1,2,nan"],
    ["neff", "--gate", "macroscopic_family", "--params", "0.3,1,2,inf"],
    ["neff", "--gate", "macroscopic_family", "--params", "0.3,1,2,2.7"],
    # an --n-range count past 100000, refused before any point is allocated
    ["fig3", "--a-list", "pi", "--n-range", "4:100000000000000:1000000000000"],
    # unparseable amplitudes, ranges and grids, and a family's parameter count
    ["neff", "--gate", "weyl", "--params", "0.7,pi/2,pi/2", "--c0", "abc"],
    ["fig3", "--n-range", "4:100"],
    ["fig3", "--n-range", "a:b:c"],
    ["fig4", "--chi-t", "0.1:0.2"],
    ["spectrum", "--gate", "weyl", "--params", "1,2"],
    # a NaN amplitude after one that overflows: abs() of the NaN raised a stale OverflowError
    ["neff", "--gate", "squeezing", "--params", "0.5", "--c0=nanj", "--c1=1.8e308"],
])
def test_malformed_arguments_exit_code(argv, capsys):
    # rejected with one error line: no traceback, and no 4-vector read as
    # a normalized 3-vector
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_singular_resolvent_exit_code(capsys):
    # E - I has singular values [1, 1, 3.7e-33, 0]: tol 1e-200 counts one unit
    # eigenvalue, so 1 - E + P is singular (numpy's LinAlgError escaped)
    code = cli.main(["spectrum", "--gate", "controlled_rotation", "--params", "pi",
                     "--tol", "1e-200"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["neff", "--gate", "weyl", "--params", "0.7,,pi/2,pi/2"],
    ["spectrum", "--gate", "weyl", "--params", "0.7,pi/2,pi/2,"],
    ["fig3", "--a-list", "pi,,pi-0.1"],
    ["fig4", "--chi-t", "0.3,,0.5"],
])
def test_empty_list_field_exit_code(argv, capsys):
    # an empty comma field is rejected, never skipped into a different input
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [["spectrum"], ["neff"], ["correlate", "--n", "4"]])
def test_unitarity_tol_loosens_only_unread_columns(command, tmp_path, capsys):
    # The sweep reads only columns 0 and 2 (each new qubit enters as |0>);
    # their isometry is re-checked at 1e-12 whatever --unitarity-tol says.
    for col, code in ((0, 2), (1, 0)):
        m = gates.random_gate(3).matrix.copy()
        m[:, col] *= 1 + 1e-9
        path = tmp_path / f"col{col}.json"
        gates.save_gate(gates.Gate(m, tol=1e-6), path)
        argv = command + ["--gate-file", str(path), "--unitarity-tol", "1e-6"]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err == ("error: Kraus pair violates the isometry constraint by 2.000e-09\n"
                       if code else "")


@pytest.mark.parametrize("payload", [
    {"family": "weyl", "params": "0.7"},
    {"family": "weyl", "params": [0.7, None, 1]},
    {"family": "controlled_rotation", "params": ["pi"]},
    {"family": "controlled_rotation", "params": [True]},
    {"family": "controlled_rotation", "params": [float("nan")]},
    {"family": "macroscopic_family", "params": [0.3, 1, 2, 2.7]},
    {"family": ["weyl"], "params": [1, 2, 3]},   # an unhashable family name
])
def test_gate_file_family_params_exit_code(payload, tmp_path, capsys):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["spectrum", "--gate-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error: ")


_ENTRY_LINE = ("error: malformed matrix entries in gate file: each entry must be an "
               "[re, im] pair of finite real numbers\n")
_SHAPE_LINE = re.compile(r"error: gate matrix must be 4 rows of 4 entries, "
                         r"got \d+ rows of lengths \[(\d+(, \d+)*)?\]\n")


@pytest.mark.parametrize("payload", [
    [1, 2],                                   # not an object
    {},                                       # neither key
    {"matrix": [[1]]},                        # an entry that is no [re, im] pair
    {"matrix": [[{}]]},                       # an entry that is an object
    {"matrix": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                [[0, 0], [0, 0], [1, 0]]]},   # 3x3
    {"matrix": [[[1 if i == j else 0, 0, 5] for j in range(4)]
                for i in range(4)]},          # [re, im, 5] entries: no pair, never truncated
    {"matrix": 0.5},                          # a matrix that is no list of rows
    {"matrix": "abcd"},
    {"matrix": {"a": 1}},
    {"matrix": [None]},                       # a row that is no list
    {"matrix": [1]},
    {"matrix": [[1.5]]},                      # an entry that is no [re, im] pair
    {"matrix": [[True]]},
    {"matrix": [["a"]]},
    {"matrix": [[[1]]]},
    {"matrix": [[[1 if i == j else 0, 0] for j in range(4 - (i == 1))]
                for i in range(4)]},          # rows of lengths 4, 3, 4, 4
])
def test_malformed_gate_file_exit_code(payload, tmp_path, capsys):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["spectrum", "--gate-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if payload == {"matrix": [[{}]]}:   # a KeyError's text would be only the key
        assert captured.err == ("error: malformed matrix entries in gate file: each entry "
                                "must be an [re, im] pair of finite real numbers\n")
    if isinstance(payload, dict) and "matrix" in payload:   # one rule line, no Python text
        assert captured.err == _ENTRY_LINE or _SHAPE_LINE.fullmatch(captured.err)


def _identity_gate_file(one) -> bytes:
    # the identity gate as a matrix gate file, ``one`` on the diagonal
    return json.dumps({"matrix": [[[one if i == j else 0, 0] for j in range(4)]
                                  for i in range(4)]}).encode()


@pytest.mark.parametrize("case", ["gate-file-not-utf8", "out-missing-dir", "out-is-dir",
                                  "gate-file-long-int", "gate-file-matrix-long-int",
                                  "gate-file-matrix-bool", "gate-file-matrix-huge"])
def test_unreadable_gate_file_or_unwritable_out_exit_code(case, tmp_path, capsys):
    # refused with one error line, not a traceback; the out cases write nothing.
    # json.load raises a ValueError that is no JSONDecodeError for bytes that
    # are not UTF-8 and for an integer past Python's 4300-digit conversion limit.
    # Matrix entries follow the params rule: a 401-digit integer, which no
    # float holds, and a JSON true, which is no number, are refused; a 1e308
    # entry is refused by its infinite unitarity deviation, with no overflow warning
    gate_file = tmp_path / "gate.json"
    gate_file.write_bytes({
        "gate-file-not-utf8": b"\xff\xfe{}",
        "gate-file-matrix-long-int": _identity_gate_file(10 ** 400),
        "gate-file-matrix-bool": _identity_gate_file(True),
        "gate-file-matrix-huge": _identity_gate_file(1e308),
    }.get(case, b'{"family": "squeezing", "params": [' + b"1" * 5000 + b"]}"))
    argv = {"gate-file-not-utf8": ["spectrum", "--gate-file", str(gate_file)],
            "gate-file-long-int": ["spectrum", "--gate-file", str(gate_file)],
            "gate-file-matrix-long-int": ["spectrum", "--gate-file", str(gate_file)],
            "gate-file-matrix-bool": ["spectrum", "--gate-file", str(gate_file)],
            "gate-file-matrix-huge": ["spectrum", "--gate-file", str(gate_file)],
            "out-missing-dir": ["fig4", "--out", str(tmp_path / "missing" / "fig4.csv")],
            "out-is-dir": ["fig4", "--out", str(tmp_path)]}[case]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_out_file_and_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    code, _ = run_cli(["spectrum", "--gate", "squeezing", "--params", "0.4",
                       "--out", "spec.csv"], capsys)
    assert code == 0
    assert (tmp_path / "spec.csv").exists()
    text = (tmp_path / "spec.csv").read_text()
    assert text.startswith("# config:")


def test_csv_float_precision_roundtrip(capsys):
    _, out = run_cli(["spectrum", "--gate", "weyl", "--params", "0.9,0.4,1.3"], capsys)
    header, rows = _rows(out)
    vals = [float(r[header.index("eig_re")]) for r in rows]
    # 17 significant digits round-trip doubles exactly
    assert any(len(r[header.index("eig_re")]) > 10 for r in rows)
    assert all(np.isfinite(vals))
