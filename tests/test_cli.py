import json
import os

import numpy as np
import pytest

from chainsweep import cli, gates
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


def test_parse_n_range():
    out = cli.parse_n_range("4:1000:5")
    assert out[0] == 4 and out[-1] == 1000
    assert out == sorted(set(out))
    with pytest.raises(InputError):
        cli.parse_n_range("10:2:3")


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
])
def test_malformed_arguments_exit_code(argv, capsys):
    # rejected with one error line: no traceback, and no 4-vector read as
    # a normalized 3-vector
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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
])
def test_gate_file_family_params_exit_code(payload, tmp_path, capsys):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["spectrum", "--gate-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error: ")


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
