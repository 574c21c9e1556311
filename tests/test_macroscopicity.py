import warnings

import numpy as np
import pytest

from chainsweep import correlators as co, gates, macroscopicity as mac, oracle, transfer
from chainsweep.errors import ToleranceError
from chainsweep.transfer import ChainSpec, LocalObservable, SIGMA_Z, build_transfer


def test_neff_weyl_y_direction():
    for alpha in (0.2, 0.7, 1.4):
        val = mac.neff(gates.weyl_gate(alpha, np.pi / 2, np.pi / 2),
                       ChainSpec(4), [0, 1, 0])
        assert abs(val - np.cos(alpha) ** 2) < 1e-8


def test_neff_weyl_x_direction():
    for beta in (0.3, 0.9):
        val = mac.neff(gates.weyl_gate(np.pi / 2, beta, np.pi / 2),
                       ChainSpec(4), [1, 0, 0])
        assert abs(val - np.cos(beta) ** 2) < 1e-8


def test_neff_identity_zero():
    for direction in ([0, 0, 1], [1, 0, 0], [0.6, 0.0, 0.8]):
        assert mac.neff(gates.identity_gate(), ChainSpec(4), direction) == 0.0


def test_neff_agrees_with_asymptotic_quadratic():
    # two independent code paths: unit-space moments of the projector vs the
    # finite-N lifted contraction, whose combination
    # V(4N) - 3 V(2N) + 2 V(N) = 6 q N^2 cancels the linear and constant terms
    rng = np.random.default_rng(9)
    cases = [gates.weyl_gate(0.7, np.pi / 2, np.pi / 2),
             gates.controlled_rotation(np.pi),
             gates.macroscopic_family(0.5, 0.3, 1.1, seed=1),
             gates.squeezing_gate(0.6),
             gates.random_gate(14),
             gates.macroscopic_family(0.3, 0.0, 0.0, seed=2)]
    for g in cases:
        for _ in range(3):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            chain = ChainSpec.plus_state(4)
            ts = build_transfer(g, chain)
            obs = LocalObservable.from_bloch(v)
            lhs = mac.neff(g, chain, v)
            n = 1000
            var = {m: co.additive_variance_exact(ts, obs, m).total for m in (n, 2 * n, 4 * n)}
            rhs = (var[4 * n] - 3.0 * var[2 * n] + 2.0 * var[n]) / (6.0 * n ** 2)
            assert abs(lhs - max(rhs, 0.0)) < 1e-8


def test_neff_invariances():
    g = gates.weyl_gate(0.8, np.pi / 2, np.pi / 2)
    chain = ChainSpec(4)
    n = np.array([0.0, 1.0, 0.0])
    base = mac.neff(g, chain, n)
    assert abs(mac.neff(g, chain, -n) - base) < 1e-12
    phased = gates.Gate(np.exp(0.3j) * g.matrix)
    assert abs(mac.neff(phased, chain, n) - base) < 1e-10


def test_neff_optimize_weyl():
    report = mac.neff_optimize(gates.weyl_gate(0.7, np.pi / 2, np.pi / 2), ChainSpec(4))
    assert report.unit_dimension == 2
    assert abs(report.neff_coeff - np.cos(0.7) ** 2) < 1e-8
    angle = np.arccos(np.clip(abs(report.best_direction[1]), -1, 1))
    assert angle < 1e-4


def test_neff_optimize_ghz():
    report = mac.neff_optimize(gates.controlled_rotation(np.pi), ChainSpec.plus_state(4))
    assert abs(report.neff_coeff - 1.0) < 1e-8
    assert abs(abs(report.best_direction[2]) - 1.0) < 1e-4
    state = oracle.sweep(gates.controlled_rotation(np.pi), ChainSpec.plus_state(10))
    assert abs(oracle.collective_variance(state, SIGMA_Z) - 100.0) < 1e-9


def test_neff_optimize_weyl_direction_exact():
    # the top eigenvector of the quadratic form is the y axis to rounding
    for alpha in (0.2, 0.7, 1.4):
        report = mac.neff_optimize(gates.weyl_gate(alpha, np.pi / 2, np.pi / 2),
                                   ChainSpec(4))
        angle = np.arccos(np.clip(abs(report.best_direction[1]), -1, 1))
        assert angle <= 1e-10


def test_neff_optimize_is_global_maximum():
    # the value neff(gate, chain, n) computes, with the transfer matrix and
    # its spectrum built once per gate rather than once per direction
    rng = np.random.default_rng(31)
    directions = rng.standard_normal((500, 3))
    chain = ChainSpec(2)
    for g in (gates.macroscopic_family(0.5, 0.3, 1.1, seed=1),
              gates.macroscopic_family(0.2, 2.0, 0.4, seed=6),
              gates.macroscopic_family(0.8, 1.3, 2.9, seed=12)):
        best = mac.neff_optimize(g, chain).neff_coeff
        ts = build_transfer(g, chain)
        values = [mac._neff_value(ts, n) for n in directions]
        assert abs(mac.neff(g, chain, directions[0]) - max(values[0], 0.0)) < 1e-15
        assert max(values) <= best + 1e-12


def test_neff_optimize_rejects_non_quadratic_form(monkeypatch):
    def fake(ts, direction):
        n = np.asarray(direction) / np.linalg.norm(direction)
        return float(n[0] ** 4 + 2.0 * n[1] ** 4 + 3.0 * n[2] ** 4)

    monkeypatch.setattr(mac, "_neff_value", fake)
    with pytest.raises(ToleranceError):
        mac.neff_optimize(gates.weyl_gate(0.7, np.pi / 2, np.pi / 2), ChainSpec(4))


@pytest.mark.parametrize("gate", [
    gates.weyl_gate(0.7, np.pi / 2, np.pi / 2),
    gates.macroscopic_family(0.5, 0.3, 1.1, seed=1),
], ids=["weyl-degenerate", "macroscopic-family"])
def test_neff_optimize_dresses_at_most_five_times(monkeypatch, gate):
    # E, the three Pauli dressings of the form, and one check at n*
    calls = []

    def counting(kraus, a):
        calls.append(a)
        return dress(kraus, a)

    dress = transfer.dressed_E
    monkeypatch.setattr(transfer, "dressed_E", counting)
    report = mac.neff_optimize(gate, ChainSpec(2))
    assert report.neff_coeff > 0.0
    assert len(calls) <= 5


def test_neff_optimize_nondegenerate_zero():
    report = mac.neff_optimize(gates.random_gate(53), ChainSpec(4))
    assert report.neff_coeff == 0.0
    assert report.unit_dimension == 1


def test_classify_macroscopic_family():
    cls = mac.classify_macroscopic(gates.macroscopic_family(0.5, 0.3, 1.1, seed=5))
    assert cls.is_macroscopic
    # the invariant state is the x-axis spin-up state
    assert np.max(np.abs(cls.witness_bloch - np.array([1.0, 0.0, 0.0]))) < 1e-9


def test_classify_weyl_degenerate():
    assert mac.classify_macroscopic(gates.weyl_gate(0.7, np.pi / 2, np.pi / 2)).is_macroscopic


def test_classify_rejects_random_gates():
    # the degeneracy condition has measure zero: a hit is logged and checked
    # for structural/spectral agreement rather than hard-failed
    hits = []
    for seed in range(100):
        cls = mac.classify_macroscopic(gates.random_gate(seed))
        assert cls.is_macroscopic == (cls.unit_dimension >= 2)
        if cls.is_macroscopic:
            hits.append(seed)
    if hits:
        print(f"random gates classified macroscopic (inspect): seeds {hits}")
    assert len(hits) == 0


def test_classify_matches_spectrum_on_families():
    grid = [gates.identity_gate(), gates.weyl_gate(0.3, 1.1, 0.2),
            gates.weyl_gate(1.0, np.pi / 2, np.pi / 2),
            gates.controlled_rotation(np.pi), gates.controlled_rotation(2.0),
            gates.squeezing_gate(0.9),
            gates.macroscopic_family(0.2, 0.7, 0.1, seed=8),
            gates.macroscopic_family(0.0, 0.9, 0.0, seed=9)]
    # independent witness reference: the null vector of T - I, T the real
    # Bloch block of B^dagger E B with B = [vec I, vec X, vec Y, vec Z]/sqrt(2)
    basis = np.column_stack([p.reshape(4) for p in (np.eye(2), gates.PAULI_X,
                                                    gates.PAULI_Y, gates.PAULI_Z)]) / np.sqrt(2)
    for g in grid:
        cls = mac.classify_macroscopic(g)
        assert cls.is_macroscopic == (cls.unit_dimension >= 2)
        if cls.unit_dimension == 2:
            e = build_transfer(g, ChainSpec(2)).e
            t = (basis.conj().T @ e @ basis)[1:, 1:].real
            null = np.linalg.svd(t - np.eye(3))[2][-1]
            n = cls.witness_bloch
            assert min(np.max(np.abs(n - null)), np.max(np.abs(n + null))) < 1e-12


def test_witness_certificate_refuses_a_foreign_unit_space(monkeypatch):
    # the unit projector of controlled_rotation(pi) fixes the z axis, while
    # the family gate's Kraus pair fixes x: r^2 + d = 0.84, far above 2 tol
    foreign = transfer.spectral(build_transfer(gates.controlled_rotation(np.pi),
                                               ChainSpec(2)).e)
    monkeypatch.setattr(mac, "spectral", lambda e, tol=transfer.UNIT_EIG_TOL: foreign)
    monkeypatch.setattr(transfer, "spectral", lambda e, tol=transfer.UNIT_EIG_TOL: foreign)
    g = gates.macroscopic_family(0.5, 0.3, 1.1, seed=5)
    with pytest.raises(ToleranceError):
        mac.classify_macroscopic(g)
    with pytest.raises(ToleranceError):
        mac.neff_optimize(g, ChainSpec(2))


def test_classify_conjugated_family_witness_rotates():
    # conjugation by a z-axis rotation keeps the channel structure; the
    # invariant state rotates along
    g = gates.macroscopic_family(0.4, 0.5, 1.0, seed=3)
    base = mac.classify_macroscopic(g)
    rz = np.diag([np.exp(-0.35j), np.exp(0.35j)])
    conj = gates.conjugated_gate(g, rz, rz)
    cls = mac.classify_macroscopic(conj)
    assert cls.is_macroscopic
    expected = rz @ base.witness
    overlap = abs(np.vdot(expected, cls.witness))
    assert abs(overlap - 1.0) < 1e-10


def test_variance_sweep_cnot_exact_squares():
    rows = mac.variance_sweep(gates.controlled_rotation(np.pi),
                              (1 / np.sqrt(2), 1 / np.sqrt(2)), SIGMA_Z,
                              [2, 4, 8, 16])
    for row in rows:
        assert abs(row["variance"] - row["n"] ** 2) < 1e-9
    slopes = [row["slope"] for row in rows[1:]]
    assert all(abs(s - 2.0) < 1e-9 for s in slopes)


def test_variance_sweep_subquadratic_passage():
    rows = mac.variance_sweep(gates.controlled_rotation(np.pi - 0.4),
                              (1 / np.sqrt(2), 1 / np.sqrt(2)), SIGMA_Z,
                              [4, 6, 8, 10, 1000])
    small_slopes = [r["slope"] for r in rows[1:4]]
    assert all(1.5 < s <= 2.0 for s in small_slopes)
    assert rows[-1]["slope"] < 1.2


def test_variance_sweep_matches_oracle():
    g = gates.controlled_rotation(np.pi - 0.2)
    rows = mac.variance_sweep(g, (1 / np.sqrt(2), 1 / np.sqrt(2)), SIGMA_Z,
                              list(range(4, 11)))
    for row in rows:
        chain = ChainSpec.plus_state(row["n"])
        state = oracle.sweep(g, chain)
        assert abs(row["variance"] - oracle.collective_variance(state, SIGMA_Z)) < 1e-8


def test_variance_sweep_rejects_unsorted():
    with pytest.raises(Exception):
        mac.variance_sweep(gates.identity_gate(), (1, 0), SIGMA_Z, [4, 3])


@pytest.mark.parametrize("gate", [
    gates.weyl_gate(0.3928, np.pi / 2, np.pi / 2),
    gates.macroscopic_family(0.37, 0.0, 0.0, seed=5),
], ids=["weyl-degenerate", "macroscopic-trivial"])
def test_neff_optimize_raises_no_warning(gate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = mac.neff_optimize(gate, ChainSpec(2))
    assert report.unit_dimension >= 2
