import warnings

import numpy as np
import pytest

from chainsweep import correlators as co, gates, macroscopicity as mac, oracle, transfer
from chainsweep.errors import InputError, ToleranceError
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
    # E, one stacked dressing of the three Paulis for the form, and one check
    # at n*, each one weighted sum of the transfer set's Kronecker terms
    calls = []

    def counting(terms, a):
        calls.append(a)
        return dress(terms, a)

    dress = transfer._dress_terms
    monkeypatch.setattr(transfer, "_dress_terms", counting)
    report = mac.neff_optimize(gate, ChainSpec(2))
    assert report.neff_coeff > 0.0
    assert len(calls) <= 3


def _chained_neff_value(ts, direction):
    # the 1-D row <v|P and its chains as _neff_value formed them by hand
    obs = LocalObservable.from_bloch(direction)
    if ts.spectrum.unit_dim == 1:
        return 0.0
    pi = ts.spectrum.projector
    ea = ts.dressed(obs.matrix)
    head = (ts.vrow @ pi) @ ea
    mean, kappa = head @ transfer.VEC_IDENTITY, head @ pi @ ea @ transfer.VEC_IDENTITY
    return co._real(kappa - mean ** 2, scale=4.0)


def _chained_neff_form(ts):
    # the Pauli form from three separate dressings and the 1-D row <v|P
    pi = ts.spectrum.projector
    v_pi = ts.vrow @ pi
    eas = [ts.dressed(p) for p in (gates.PAULI_X, gates.PAULI_Y, gates.PAULI_Z)]
    heads = np.array([v_pi @ ea for ea in eas])
    cols = np.array([ea @ transfer.VEC_IDENTITY for ea in eas]).T
    m = heads @ transfer.VEC_IDENTITY
    kappa = heads @ pi @ cols
    return co._real(0.5 * (kappa + kappa.T) - np.outer(m, m), scale=4.0)


@pytest.mark.parametrize("gate", [
    gates.macroscopic_family(0.5, 0.3, 1.1, seed=1),
    gates.macroscopic_family(0.8, 1.3, 2.9, seed=12),
    gates.weyl_gate(0.7, np.pi / 2, np.pi / 2),
    gates.weyl_gate(np.pi / 2, 0.4, np.pi / 2),
    gates.random_gate(14),
], ids=["macroscopic-family-1", "macroscopic-family-12", "weyl-degenerate-y",
        "weyl-degenerate-x", "unit-dimension-1"])
def test_unit_head_callers_equal_their_chained_products(gate):
    # _neff_value, _neff_form and _lift's shift mu read their rows off
    # correlators._unit_head; each stays == the chain it replaced
    rng = np.random.default_rng(3)
    directions = np.vstack((np.eye(3), rng.standard_normal((4, 3))))
    for chain in (ChainSpec(4), ChainSpec.plus_state(4), ChainSpec(4, 0.6, 0.8j)):
        ts = build_transfer(gate, chain)
        assert ts.spectrum.unit_dim == (1 if gate.family == "custom" else 2)
        assert np.array_equal(mac._neff_form(ts), _chained_neff_form(ts))
        for n in directions:
            got, want = mac._neff_value(ts, n), _chained_neff_value(ts, n)
            assert got == want and type(got) is type(want)
        obs = LocalObservable.from_bloch(directions)
        for a in (*obs.matrix, obs.matrix):
            want = (ts.vrow[None, :] @ ts.spectrum.projector @ ts.dressed(a)
                    @ transfer.VEC_IDENTITY)[..., 0].real
            assert np.array_equal(co._lift(ts, a)[2], want)


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


SWEEP_N = [6, 13, 26, 55, 115, 240, 502, 1050, 2197, 4595, 9610, 20100]
PLUS = (1 / np.sqrt(2), 1 / np.sqrt(2))
RANDOM_DIRECTION = LocalObservable.from_bloch([0.37, -0.81, 0.45])
SWEEP_CASES = (
    [(gates.controlled_rotation(np.pi - d), PLUS, obs)
     for d in (0.0, 0.1, 0.2, 0.3, 0.4) for obs in (SIGMA_Z, RANDOM_DIRECTION)]
    + [(gates.random_gate(seed), (0.6, 0.8j), RANDOM_DIRECTION) for seed in range(5)]
    + [(gates.squeezing_gate(chi_t), (1, 0), LocalObservable.from_bloch([1, 1, 0]))
       for chi_t in (0.4, 0.9)])


@pytest.mark.parametrize("gate,amplitudes,obs", SWEEP_CASES)
def test_variance_sweep_is_bitwise_the_per_n_path(gate, amplitudes, obs):
    rows = mac.variance_sweep(gate, amplitudes, obs, SWEEP_N)
    ts = build_transfer(gate, ChainSpec(2, *amplitudes))
    _, errors = co._variance(ts, obs, np.array(SWEEP_N))
    prev = None
    for row, n, err in zip(rows, SWEEP_N, errors):
        single = co.additive_variance_exact(ts, obs, n)
        assert row["n"] == n and row["variance"] == single.total
        assert err == single.error_estimate
        slope = None
        if prev is not None and prev[1] > 0 and single.total > 0:
            slope = ((np.log(single.total) - np.log(prev[1]))
                     / (np.log(n) - np.log(prev[0])))
        assert row["slope"] == slope
        prev = (n, single.total)


def test_variance_sweep_refuses_a_mixed_list():
    # N = 1000 alone is fine; 10**12 in the same list raises for the list
    rows = mac.variance_sweep(gates.controlled_rotation(np.pi), PLUS, SIGMA_Z, [1000])
    assert rows[0]["variance"] == pytest.approx(1000.0 ** 2, rel=1e-12)
    with pytest.raises(ToleranceError, match="collective variance"):
        mac.variance_sweep(gates.controlled_rotation(np.pi), PLUS, SIGMA_Z,
                           [1000, 10 ** 12])
    # with two lengths over their bound, the first in the list is reported
    ts = build_transfer(gates.controlled_rotation(np.pi), ChainSpec(2, *PLUS))
    with pytest.raises(ToleranceError) as first:
        co.additive_variance_exact(ts, SIGMA_Z, 10 ** 12)
    with pytest.raises(ToleranceError) as swept:
        mac.variance_sweep(gates.controlled_rotation(np.pi), PLUS, SIGMA_Z,
                           [10 ** 12, 10 ** 13])
    assert str(swept.value) == str(first.value)


STACK_ANGLES = np.array([np.pi, np.pi - 0.1, np.pi - 0.4])   # unit dimensions 2, 1, 1


def _each_gate(angles, amplitudes, obs, n_list):
    """Each angle's own rows, or the message of the first angle that refuses."""
    sweeps = []
    for a in angles:
        try:
            sweeps.append(mac.variance_sweep(gates.controlled_rotation(a), amplitudes, obs,
                                             n_list))
        except ToleranceError as exc:
            return str(exc)
    return sweeps


@pytest.mark.parametrize("n_list", [[2, 4, 9, 1000, 10 ** 9],
                                    [4, 10 ** 6, 10 ** 12, 10 ** 18],
                                    [10 ** 18]])
@pytest.mark.parametrize("obs", [SIGMA_Z, LocalObservable.from_bloch([1, 1, 0])],
                         ids=["z", "xy"])
@pytest.mark.parametrize("amplitudes", [PLUS, (0.6, 0.8j)], ids=["plus", "complex"])
@pytest.mark.parametrize("angles", [STACK_ANGLES, STACK_ANGLES[1:]], ids=["pi", "below-pi"])
def test_variance_sweep_stack_is_each_gate(angles, amplitudes, obs, n_list):
    # every row == the gate's own call, or the first refusal in (a, N) order;
    # without pi, sigma_z runs to N = 1e18
    want = _each_gate(angles, amplitudes, obs, n_list)
    stack = gates.controlled_rotation(angles)
    if isinstance(want, str):
        with pytest.raises(ToleranceError) as refused:
            list(mac.variance_sweep(stack, amplitudes, obs, n_list))
        assert str(refused.value) == want
    else:
        assert list(mac.variance_sweep(stack, amplitudes, obs, n_list)) == want


def test_variance_sweep_blocks_give_the_same_rows(monkeypatch):
    # blocks of 2, 2 and 1 gates (9 // 4 N = 2), then of one gate each
    angles = np.pi - np.array([0.0, 0.05, 0.1, 0.4, 0.7])
    n_list = [3, 40, 500, 7000]
    want = _each_gate(angles, PLUS, SIGMA_Z, n_list)
    whole = list(mac.variance_sweep(gates.controlled_rotation(angles), PLUS, SIGMA_Z, n_list))
    for rows in (9, 4):
        monkeypatch.setattr(mac, "ROWS", rows)
        assert list(mac.variance_sweep(gates.controlled_rotation(angles), PLUS, SIGMA_Z,
                                       n_list)) == whole == want
    # a refusal in a later block is the first in (a, N) order, as one gate's
    n_list = [4, 10 ** 12]
    monkeypatch.setattr(mac, "ROWS", 2)
    sweeps = mac.variance_sweep(gates.controlled_rotation(angles[::-1]), PLUS, SIGMA_Z, n_list)
    assert next(sweeps) == _each_gate(angles[::-1][:1], PLUS, SIGMA_Z, n_list)[0]
    with pytest.raises(ToleranceError) as refused:
        list(sweeps)
    assert str(refused.value) == _each_gate(angles[::-1], PLUS, SIGMA_Z, n_list)


def test_variance_sweep_of_a_stack_without_lengths_or_gates():
    stack = gates.controlled_rotation(STACK_ANGLES)
    assert list(mac.variance_sweep(stack, PLUS, SIGMA_Z, [])) == [[], [], []]
    assert mac.variance_sweep(gates.controlled_rotation(np.pi), PLUS, SIGMA_Z, []) == []
    # an empty stack builds no chain, so unnormalized amplitudes pass unread
    assert list(mac.variance_sweep(gates.controlled_rotation(np.array([])), (2, 0),
                                   SIGMA_Z, [4])) == []


def test_variance_sweep_rejects_a_stack_with_two_batch_axes():
    stack = gates.controlled_rotation(STACK_ANGLES.reshape(3, 1))
    with pytest.raises(InputError, match="one batch axis"):
        mac.variance_sweep(stack, PLUS, SIGMA_Z, [4, 8])


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
