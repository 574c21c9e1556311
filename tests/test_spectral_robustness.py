"""Near-degenerate gates and the general eigensolver's absence from hot paths.

controlled_rotation(pi - 2*10^-k) has a second transfer eigenvalue about
10^-2k below 1: k <= 4 lies outside the unit tolerance 1e-9, k >= 5 inside.
"""

import numpy as np
import pytest

from chainsweep import (cli, correlators as co, densemat, gates,
                        macroscopicity as mac, squeezing as sq, transfer)
from chainsweep.transfer import (ChainSpec, LocalObservable, SIGMA_X, SIGMA_Z,
                                 build_transfer)


def _near_pi_rotation(k):
    return gates.controlled_rotation(np.pi - 2.0 * 10.0 ** -k)


@pytest.mark.parametrize("k", range(1, 9))
def test_near_degenerate_rotation_computes(k):
    g = _near_pi_rotation(k)
    for chain in (ChainSpec(2), ChainSpec.plus_state(2)):
        ts = build_transfer(g, chain)
        spec = ts.spectrum
        assert spec.unit_dim == (1 if k <= 4 else 2)
        z = co.asymptotic_variance(ts, SIGMA_Z)
        co.asymptotic_variance(ts, SIGMA_X)
        report = mac.neff_optimize(g, chain)
        assert report.unit_dimension == spec.unit_dim
        if k <= 4 and chain.c1 != 0:
            # sum sigma_z has exactly zero linear coefficient on |+...>: the
            # computed one must lie within the reported estimate, which
            # grows like 1/gap (deviation/estimate 0.06 to 0.11 for k = 1..4)
            assert abs(z.linear_coeff) <= z.error_estimate
    # one verdict from the singular value that sets unit_dim: 1.41e-8 at
    # k = 4 lies above the default tol 1e-9
    assert mac.classify_macroscopic(g).is_macroscopic == (k >= 5)


# The band where the unit dimension and a Kraus eigenvector search at one
# tol once disagreed (exit 3): sigma_2(E - I) is 1.41e-8 for the rotation and
# about d^2/2 for the Weyl gates at pi/2 - d, while the search's residual
# scales like sqrt(sigma_2).
_BAND = [("controlled_rotation", "pi-2e-4", gates.controlled_rotation(np.pi - 2e-4))] + [
    ("weyl", f"0.7,pi/2-{eps},pi/2", gates.weyl_gate(0.7, np.pi / 2 - float(eps), np.pi / 2))
    for eps in ("1e-4", "1e-5", "1e-6", "1e-7")]


@pytest.mark.parametrize("family,params,gate", _BAND, ids=[b[1] for b in _BAND])
def test_band_gates_get_one_verdict(family, params, gate, capsys):
    argv = ["--gate", family, "--params", params]
    for tol in (transfer.UNIT_EIG_TOL, 1e-8):
        assert cli.main(["spectrum", *argv, "--tol", repr(tol)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[1].split(",")
        for row in (ln.split(",") for ln in lines[2:]):
            dim = int(row[header.index("unit_dimension")])
            assert row[header.index("is_macroscopic")] == str(int(dim >= 2))
    assert cli.main(["neff", *argv]) == 0
    capsys.readouterr()
    e = build_transfer(gate, ChainSpec(2)).e
    for cls, tol in ((mac.classify_macroscopic(gate), transfer.UNIT_EIG_TOL),
                     (mac.classify_macroscopic(gate, tol=1e-8), 1e-8)):
        assert cls.unit_dimension == transfer.spectral(e, tol=tol).unit_dim
        assert cls.is_macroscopic == (cls.unit_dimension >= 2)
    report = mac.neff_optimize(gate, ChainSpec(2))
    assert report.unit_dimension == transfer.spectral(e).unit_dim
    assert (report.witness is not None) == (report.unit_dimension >= 2)


def _hot_path_gates():
    return [gates.weyl_gate(0.7, np.pi / 2, np.pi / 2), gates.random_gate(13),
            gates.squeezing_gate(0.6)]


def test_hot_paths_do_not_call_general_eigensolver(monkeypatch, tmp_path, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("densemat.eig_general called on a hot path")

    monkeypatch.setattr(densemat, "eig_general", forbidden)
    direction = [0.36, 0.48, 0.8]
    for idx, g in enumerate(_hot_path_gates()):
        chain = ChainSpec.plus_state(4)
        ts = build_transfer(g, chain)
        transfer.spectral(ts.e)
        co.asymptotic_variance(ts, LocalObservable.from_bloch(direction))
        mac.neff(g, chain, direction)
        mac.neff_optimize(g, ChainSpec(2))
        mac.classify_macroscopic(g)
        path = tmp_path / f"gate{idx}.json"
        gates.save_gate(g, path)
        assert cli.main(["spectrum", "--gate-file", str(path)]) == 0
    capsys.readouterr()
    assert len(sq.fig4_curve([0.3, 0.9])) == 2


def test_fig4_and_asymptotic_variance_never_sort_eigenvalues(monkeypatch, capsys):
    # spectral sorts (and, where ||E||_inf <= 1 + 1e-10 proves the unit
    # disk, runs eigvals) only when ``values`` is read, and neither the fig4
    # pass nor the asymptotic coefficients read it
    def forbidden(*args, **kwargs):
        raise AssertionError("densemat.eigenvalue_order called")

    monkeypatch.setattr(densemat, "eigenvalue_order", forbidden)
    assert len(sq.fig4_curve(np.linspace(0.1, 1.4, 9))) == 9
    assert len(sq.fig4_curve([0.5], theta=0.3)) == 1
    assert cli.main(["fig4"]) == 0
    capsys.readouterr()
    for g in _hot_path_gates():
        ts = build_transfer(g, ChainSpec.plus_state(4))
        co.asymptotic_variance(ts, LocalObservable.from_bloch([0.36, 0.48, 0.8]))
        with pytest.raises(AssertionError, match="eigenvalue_order"):
            ts.spectrum.values


def test_fig4_makes_no_eigvals_call_and_spectrum_makes_one(eigvals_calls, tmp_path, capsys):
    # every squeezing E has ||E||_inf = 1 + O(eps), which proves the unit
    # disk, so the fig4 pass never runs eigvals; spectrum prints the values,
    # from one call either way: lazily for the squeezing gate, eagerly for the
    # unit-disk check of a random gate (row sums above 1), and reused
    assert len(sq.fig4_curve(np.linspace(0.02, 1.5, 75))) == 75
    assert cli.main(["fig4"]) == 0
    assert eigvals_calls == []
    assert cli.main(["spectrum", "--gate", "squeezing", "--params", "0.6"]) == 0
    assert eigvals_calls == [(1, 4, 4)]
    gate = gates.random_gate(3)
    assert np.abs(build_transfer(gate, ChainSpec(2)).e).sum(-1).max() > 1.0 + 1e-10
    path = tmp_path / "random.json"
    gates.save_gate(gate, path)
    assert cli.main(["spectrum", "--gate-file", str(path)]) == 0
    assert eigvals_calls == [(1, 4, 4)] * 2
    capsys.readouterr()


def test_neff_optimize_reports_z_when_form_is_rounding_noise():
    # on |0...0> these gates build no collective superposition: the form
    # n^T M n vanishes identically and its top eigenvector is noise
    for g in [gates.controlled_rotation(np.pi)] + [_near_pi_rotation(k)
                                                   for k in range(5, 9)]:
        report = mac.neff_optimize(g, ChainSpec(2))
        assert report.unit_dimension == 2
        assert report.neff_coeff == 0.0
        assert np.array_equal(report.best_direction, [0.0, 0.0, 1.0])
        assert report.witness is not None


# unit_dim of spectral(E(pi - 2*10^-k), tol) for each tol in _TIGHT_TOLS:
# the number of singular values of E - I at or below tol (the second
# smallest is 1.41*10^-2k).  k = 5, 6 at tol <= 1e-12 and k = 7 at 1e-14
# once raised ConvergenceError on a canonicalization check.
_TIGHT_TOLS = (1e-14, 1e-12, 1e-9, 1e-7)
_NEAR_PI_UNIT_DIM = {1: (1, 1, 1, 1), 2: (1, 1, 1, 1), 3: (1, 1, 1, 1),
                     4: (1, 1, 1, 2), 5: (1, 1, 2, 2), 6: (1, 1, 2, 2),
                     7: (1, 2, 2, 2), 8: (2, 2, 2, 2)}


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("tol", _TIGHT_TOLS)
def test_spectral_computes_near_pi_at_tight_tolerances(k, tol):
    spec = transfer.spectral(build_transfer(_near_pi_rotation(k), ChainSpec(2)).e,
                             tol=tol)
    assert spec.unit_dim == _NEAR_PI_UNIT_DIM[k][_TIGHT_TOLS.index(tol)]
    pi = spec.projector
    assert np.max(np.abs(pi @ transfer.VEC_IDENTITY - transfer.VEC_IDENTITY)) < 1e-12
    assert abs(np.trace(pi) - spec.unit_dim) < 1e-12
    assert np.max(np.abs(pi @ pi - pi)) < 1e-12


def test_spectrum_tight_tolerance_one_verdict(capsys, monkeypatch):
    # one spectrum, counted at --tol, feeds both unit_dimension and the verdict
    calls = []

    def counting(e, tol=transfer.UNIT_EIG_TOL):
        calls.append(tol)
        return transfer.spectral(e, tol=tol)

    monkeypatch.setattr(mac, "spectral", counting)
    code = cli.main(["spectrum", "--gate", "controlled_rotation",
                     "--params", "pi-2e-5", "--tol", "1e-12"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0 and calls == [1e-12]
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 4
    assert {r[header.index("unit_dimension")] for r in rows} == {"1"}
    assert {r[header.index("is_macroscopic")] for r in rows} == {"0"}
