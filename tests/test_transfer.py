import numpy as np
import pytest

import chainsweep
from chainsweep import correlators as co, densemat as dm, gates, oracle, transfer
from chainsweep.errors import InputError
from chainsweep.transfer import (ChainSpec, LocalObservable, VEC_IDENTITY,
                                 boundary_row, build_transfer, check_isometry,
                                 dressed_E, extract_kraus,
                                 site_density_recursion, spectral, transfer_E)

ALL_FAMILIES = [
    gates.identity_gate(),
    gates.weyl_gate(0.7, 1.1, 0.3),
    gates.weyl_gate(0.7, np.pi / 2, np.pi / 2),
    gates.controlled_rotation(np.pi),
    gates.controlled_rotation(np.pi - 0.3),
    gates.squeezing_gate(0.5),
    gates.macroscopic_family(0.5, 0.3, 1.1, seed=3),
]


def test_extract_kraus_identity_gate():
    k = extract_kraus(gates.identity_gate())
    assert np.array_equal(k.v0, np.array([[1, 0], [0, 0]]))
    assert np.array_equal(k.v1, np.array([[0, 0], [1, 0]]))


def test_extract_kraus_weyl():
    x, y, z, w = gates.weyl_params(0.7, 1.1, 0.3)
    k = extract_kraus(gates.weyl_gate(0.7, 1.1, 0.3))
    assert np.max(np.abs(k.v0 - [[x, 0], [0, y]])) < 1e-15
    assert np.max(np.abs(k.v1 - [[0, w], [z, 0]])) < 1e-15


def test_extract_kraus_squeezing():
    chi_t = 0.45
    k = extract_kraus(gates.squeezing_gate(chi_t))
    c, s = np.cos(chi_t), np.sin(chi_t)
    assert np.max(np.abs(k.v0 - [[c, 0], [0, 0]])) < 1e-15
    assert np.max(np.abs(k.v1 - [[0, -1j * s], [1, 0]])) < 1e-15


def test_check_isometry_cases():
    assert check_isometry(extract_kraus(gates.random_gate(1))) < 1e-12
    bad = transfer.KrausPair(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    assert abs(check_isometry(bad) - 1.0) < 1e-15


def test_isometry_sweep_random():
    for seed in range(100):
        k = extract_kraus(gates.random_gate(seed))
        assert check_isometry(k) < 1e-12


def test_transfer_E_weyl_matrix():
    x, y, z, w = gates.weyl_params(0.9, 0.4, 1.3)
    e = transfer_E(extract_kraus(gates.weyl_gate(0.9, 0.4, 1.3)))
    expected = np.array([
        [abs(x) ** 2, 0, 0, abs(w) ** 2],
        [0, np.conj(x) * y, z * np.conj(w), 0],
        [0, np.conj(z) * w, x * np.conj(y), 0],
        [abs(z) ** 2, 0, 0, abs(y) ** 2],
    ])
    assert np.max(np.abs(e - expected)) < 1e-14


def _multiset_dev(got, want):
    from itertools import permutations
    return min(max(abs(g - w) for g, w in zip(got, perm))
               for perm in permutations(want))


@pytest.mark.parametrize("angles", [(0.9, 0.4, 1.3), (0.2, 2.1, -0.8), (1.4, 1.4, 0.0)])
def test_transfer_E_weyl_eigenvalues(angles):
    a, b, c = angles
    e = transfer_E(extract_kraus(gates.weyl_gate(a, b, c)))
    sa, sb, sc = np.sin(a), np.sin(b), np.sin(c)
    disc = np.sqrt(complex(sc ** 2 * (sa + sb) ** 2 - 4 * sa * sb))
    expected = [1, sa * sb, 0.5 * sc * (sa + sb) + 0.5 * disc,
                0.5 * sc * (sa + sb) - 0.5 * disc]
    assert _multiset_dev(dm.eig_general(e).values, expected) < 1e-9


def test_transfer_E_squeezing_eigenvalues():
    chi_t = 0.5
    e = transfer_E(extract_kraus(gates.squeezing_gate(chi_t)))
    s = np.sin(chi_t)
    expected = np.sort_complex(np.array([1, s, -s ** 2, -s], dtype=complex))
    got = np.sort_complex(dm.eig_general(e).values)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_transfer_E_right_angle_weyl_is_identity():
    # the maximally entangling point: all four transfer eigenvalues are 1
    e = transfer_E(extract_kraus(gates.weyl_gate(np.pi / 2, np.pi / 2, np.pi / 2)))
    assert np.max(np.abs(e - np.eye(4))) < 1e-14
    res = dm.eig_general(e)
    assert np.max(np.abs(res.values - 1.0)) < 1e-12
    assert spectral(e).unit_dim == 4
    # powers are idempotent here; repeated squaring must agree with the
    # literal sevenfold product
    naive = np.eye(4, dtype=complex)
    for _ in range(7):
        naive = naive @ e
    assert np.max(np.abs(dm.matpow(e, 7) - naive)) < 1e-13
    assert np.max(np.abs(dm.matpow(e, 7) - e)) < 1e-13


def test_transfer_E_trivial_rotation_family_unit_space():
    # both Kraus rotations trivial: the channel is the identity map
    e = transfer_E(extract_kraus(gates.macroscopic_family(0.3, 0.0, 0.0, seed=5)))
    res = dm.eig_general(e)
    assert np.max(np.abs(res.values - 1.0)) < 1e-12
    assert spectral(e).unit_dim == 4


def _literal_boundary(chain):
    # X = sum_i W_i* x W_i, W_i = |i><phi*| with <phi*| = c0 <0| + c1 <1|
    # taken literally (no conjugation).
    phi_row = np.array([chain.c0, chain.c1])
    w = [np.outer(np.eye(2)[:, i], phi_row) for i in range(2)]
    return sum(np.kron(wi.conj(), wi) for wi in w)


def _row_boundary(chain):
    return np.outer(VEC_IDENTITY, boundary_row(chain))


def test_boundary_X_zero_state():
    chain = ChainSpec(3, 1.0, 0.0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 0] = 1.0
    assert np.max(np.abs(_literal_boundary(chain) - expected)) < 1e-15
    assert np.max(np.abs(_row_boundary(chain) - expected)) < 1e-15


def test_boundary_X_plus_state():
    # Literal sum W_i* x W_i for c = (1,1)/sqrt(2): |I> times the uniform row.
    chain = ChainSpec.plus_state(3)
    expected = 0.5 * np.outer(VEC_IDENTITY, np.ones(4))
    assert np.max(np.abs(_literal_boundary(chain) - expected)) < 1e-15
    assert np.max(np.abs(_row_boundary(chain) - expected)) < 1e-15


def test_boundary_X_rank_one():
    # An imaginary amplitude separates <phi*| from its conjugate: the row
    # must carry conj(c_q) c_s, not c_q conj(c_s).
    chain = ChainSpec(4, 0.6, 0.8j)
    x = _literal_boundary(chain)
    assert np.sum(dm.singular_values(x) > 1e-12) == 1
    assert np.max(np.abs(_row_boundary(chain) - x)) < 1e-15
    assert abs(boundary_row(chain) @ VEC_IDENTITY - 1.0) < 1e-15


def test_chain_spec_rejects_unnormalized():
    with pytest.raises(InputError):
        ChainSpec(3, 1.0, 0.5)
    with pytest.raises(InputError):
        ChainSpec(1, 1.0, 0.0)


def test_dressed_identity_reduces():
    k = extract_kraus(gates.random_gate(11))
    chain = ChainSpec(4, 0.6, 0.8)
    ident = LocalObservable(np.eye(2, dtype=complex))
    assert np.max(np.abs(dressed_E(k, ident.matrix) - transfer_E(k))) < 1e-14
    assert np.max(np.abs(_row_boundary(chain) - _literal_boundary(chain))) < 1e-14


def test_dressed_E_weyl_structure():
    # E_A maps |00> to x*z A01 |01> + x z* A10 |10> plus a |00>,|11> component.
    x, y, z, w = gates.weyl_params(0.8, 0.5, 1.1)
    k = extract_kraus(gates.weyl_gate(0.8, 0.5, 1.1))
    obs = LocalObservable.from_bloch([0.3, 0.5, np.sqrt(1 - 0.09 - 0.25)])
    a = obs.matrix
    col = dressed_E(k, obs.matrix)[:, 0]
    assert abs(col[1] - np.conj(x) * z * a[0, 1]) < 1e-14
    assert abs(col[2] - x * np.conj(z) * a[1, 0]) < 1e-14


def test_dressed_E_squeezing_matrix():
    chi_t = 0.65
    k = extract_kraus(gates.squeezing_gate(chi_t))
    x = np.cos(chi_t)
    w = -1j * np.sin(chi_t)
    nx, ny, nz = 0.48, -0.6, np.sqrt(1 - 0.48 ** 2 - 0.36)
    obs = LocalObservable.from_bloch([nx, ny, nz])
    expected = np.array([
        [nz * abs(x) ** 2, (nx - 1j * ny) * np.conj(x) * w,
         (nx + 1j * ny) * x * np.conj(w), -nz * abs(w) ** 2],
        [(nx - 1j * ny) * np.conj(x), 0, -nz * np.conj(w), 0],
        [(nx + 1j * ny) * x, -nz * w, 0, 0],
        [-nz, 0, 0, 0],
    ])
    assert np.max(np.abs(dressed_E(k, obs.matrix) - expected)) < 1e-14


def test_dressed_E_linearity():
    k = extract_kraus(gates.random_gate(21))
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = dressed_E(k, a + b)
    rhs = dressed_E(k, a) + dressed_E(k, b)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def _literal_dressing(k, a):
    vs = (k.v0, k.v1)
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            if a[i, j] != 0:
                out += a[i, j] * np.kron(vs[i].conj(), vs[j])
    return out


def test_dressing_equals_literal_ordered_sum_bitwise():
    # E and E_A are the sum of a_ij V_i* x V_j added to zero in the order
    # (0,0), (0,1), (1,0), (1,1); the CLI output is byte-stable only while
    # that order holds, so the comparison is exact, not within a tolerance.
    rng = np.random.default_rng(17)
    eye = np.eye(2, dtype=complex)
    for seed in range(200):
        k = extract_kraus(gates.random_gate(seed))
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.array_equal(dressed_E(k, a), _literal_dressing(k, a))
        assert np.array_equal(transfer_E(k), _literal_dressing(k, eye))


def test_package_exports_resolve():
    missing = [name for name in chainsweep.__all__ if not hasattr(chainsweep, name)]
    assert missing == []


def test_transfer_invariants_all_families_and_random():
    # fixed-point identities and the isometry constraint for every family
    # and 1000 seeded random gates; spectral modulus on a subset (eig is the
    # expensive part, and criterion 3 covers the closed-form spectra)
    candidates = ALL_FAMILIES + [gates.random_gate(seed) for seed in range(1000)]
    chain = ChainSpec(4, 0.6, 0.8j)
    for idx, g in enumerate(candidates):
        ts = build_transfer(g, chain)
        assert np.max(np.abs(ts.e @ VEC_IDENTITY - VEC_IDENTITY)) < 1e-12
        assert abs(ts.vrow @ VEC_IDENTITY - 1.0) < 1e-12
        assert check_isometry(ts.kraus) < 1e-12
        if idx < 100:
            assert np.all(np.abs(dm.eig_general(ts.e).values) <= 1 + 1e-10)


def test_spectral_identity_gate():
    sd = spectral(transfer_E(extract_kraus(gates.identity_gate())))
    assert sd.unit_dim == 1
    assert np.max(np.abs(sd.projector @ VEC_IDENTITY - VEC_IDENTITY)) < 1e-12
    assert abs(np.trace(sd.projector) - sd.unit_dim) < 1e-12


def test_spectral_degenerate_weyl():
    alpha = 0.7
    sd = spectral(transfer_E(extract_kraus(gates.weyl_gate(alpha, np.pi / 2, np.pi / 2))))
    assert sd.unit_dim == 2
    got = np.sort_complex(sd.values)
    expected = np.sort_complex(np.array([1, 1, np.sin(alpha), np.sin(alpha)],
                                        dtype=complex))
    assert np.max(np.abs(got - expected)) < 1e-9
    pi = sd.projector
    assert np.max(np.abs(pi @ pi - pi)) < 1e-9


def test_spectral_squeezing_left_vector():
    chi_t = 0.5
    sd = spectral(transfer_E(extract_kraus(gates.squeezing_gate(chi_t))))
    w2 = np.sin(chi_t) ** 2
    expected = np.array([1, 0, 0, w2]) / (1 + w2)
    # P = |I><l| for a non-degenerate unit eigenvalue, and vec(I)_0 = 1
    assert np.max(np.abs(sd.projector[0] - expected)) < 1e-12


def test_spectral_reconstruction():
    e = transfer_E(extract_kraus(gates.random_gate(31)))
    res = dm.eig_general(e)
    rec = sum(res.values[res.vector_index[j]] * np.outer(res.right[:, j], res.left[j])
              for j in range(res.right.shape[1]))
    assert np.max(np.abs(rec - e)) < 1e-9


def test_spectral_data_is_frozen_and_read_only():
    sd = spectral(transfer_E(extract_kraus(gates.weyl_gate(0.7, np.pi / 2, np.pi / 2))))
    with pytest.raises(AttributeError):
        sd.unit_dim = 3
    with pytest.raises(AttributeError):
        sd.projector = np.eye(4)
    for name in ("values", "projector", "resolvent"):
        with pytest.raises(ValueError):
            getattr(sd, name)[0, ...] = 0.0


def test_reduced_resolvent_identity():
    # S must satisfy S (1 - E) = 1 - P on the whole space and S P = 0.
    e = transfer_E(extract_kraus(gates.random_gate(13)))
    sd = spectral(e)
    pi, s = sd.projector, sd.resolvent
    assert np.max(np.abs(s @ (np.eye(4) - e) - (np.eye(4) - pi))) < 1e-9
    assert np.max(np.abs(s @ pi)) < 1e-9


def test_site_density_identity_gate_partial_trace():
    # Oracle: rho_out = tr_1(U (rho x |0><0|) U†) computed literally.
    k = extract_kraus(gates.identity_gate())
    rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
    out = site_density_recursion(k, rho)
    assert np.max(np.abs(out - np.array([[1, 0], [0, 0]]))) < 1e-12


def _partial_trace_oracle(u, rho):
    inp = np.kron(rho, np.array([[1, 0], [0, 0]], dtype=complex))
    full = u @ inp @ u.conj().T
    out = np.zeros((2, 2), dtype=complex)
    for j in range(2):
        for k2 in range(2):
            out[j, k2] = full[0 * 2 + j, 0 * 2 + k2] + full[1 * 2 + j, 1 * 2 + k2]
    return out


@pytest.mark.parametrize("seed", [2, 9])
def test_site_density_matches_partial_trace(seed):
    g = gates.random_gate(seed)
    k = extract_kraus(g)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    lhs = site_density_recursion(k, rho)
    rhs = _partial_trace_oracle(g.matrix, rho)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert abs(np.trace(lhs) - 1.0) < 1e-12


def test_site_density_controlled_flip_on_mixed():
    k = extract_kraus(gates.controlled_rotation(np.pi))
    out = site_density_recursion(k, 0.5 * np.eye(2, dtype=complex))
    assert np.max(np.abs(out - 0.5 * np.eye(2))) < 1e-12


def test_site_density_rejects_bad_input():
    k = extract_kraus(gates.identity_gate())
    with pytest.raises(InputError):
        site_density_recursion(k, np.array([[1.0, 0.5], [0.0, 0.0]]))


@pytest.mark.parametrize("rho,match", [
    (np.array([[0.7, 0.1], [0.1, 0.4]]), "unit trace"),
    (np.array([[1.5, 0.0], [0.0, -0.5]]), "positive semidefinite"),
])
def test_site_density_rejects_bad_trace_and_negative_weight(rho, match):
    k = extract_kraus(gates.random_gate(4))
    with pytest.raises(InputError, match=match):
        site_density_recursion(k, rho)


def test_local_observable_rejects_non_hermitian():
    # checked over every element of a stack, at 1e-12 of the adjoint
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    x, z = transfer.SIGMA_X.matrix, transfer.SIGMA_Z.matrix
    for bad in (raising, np.stack([x, raising, z]), z + 2e-12 * raising):
        with pytest.raises(InputError, match="Hermitian"):
            LocalObservable(bad)
    assert LocalObservable(z + 5e-13 * raising).matrix.shape == (2, 2)


def test_density_recursion_matches_oracle_chain():
    # The recursion iterate rho_m is the site-m reduced density right after
    # U_{m-1,m}: compare against the prefix-swept oracle state.  For the
    # last site that is also the final state.
    for g in (gates.random_gate(3), gates.squeezing_gate(0.8)):
        chain = ChainSpec(10, 0.6, 0.8j)
        k = extract_kraus(g)
        rho = np.array([[abs(chain.c0) ** 2, chain.c0 * np.conj(chain.c1)],
                        [chain.c1 * np.conj(chain.c0), abs(chain.c1) ** 2]])
        for m in range(1, chain.n + 1):
            prefix = oracle.sweep(g, chain, upto=m - 1)
            ref = oracle.reduced_density(prefix, m)
            assert np.max(np.abs(rho - ref)) < 1e-10
            rho = site_density_recursion(k, rho)
        final = oracle.sweep(g, chain)
        last = oracle.reduced_density(final, chain.n)
        prefix_last = oracle.reduced_density(oracle.sweep(g, chain, upto=chain.n - 1),
                                             chain.n)
        assert np.max(np.abs(last - prefix_last)) < 1e-12


@pytest.mark.parametrize("seed", [7, 13, 14, 15, 16, 17, 20, 21, 24, 30])
def test_spectral_conjugate_pairs_list_positive_imaginary_first(seed):
    values = spectral(build_transfer(gates.random_gate(seed), ChainSpec(2)).e).values
    pairs = 0
    for a, b in zip(values, values[1:]):
        if abs(a.imag) > 1e-6 and abs(a - np.conj(b)) < 1e-9:
            assert a.imag > 0 > b.imag
            pairs += 1
    assert pairs >= 1


@pytest.mark.parametrize("chi_t", [0.3, 0.5, 1.0, 1.4])
def test_spectral_order_of_squeezing_spectrum(chi_t):
    # E has eigenvalues {1, s, -s, -s^2}, s = sin(chi t): equal moduli are
    # ordered by descending real part.
    s = np.sin(chi_t)
    values = spectral(build_transfer(gates.squeezing_gate(chi_t), ChainSpec(2)).e).values
    assert np.max(np.abs(values - [1.0, s, -s, -s * s])) < 1e-12


def _mixed_stack():
    gs = [gates.random_gate(5),                                # unit_dim 1
          gates.macroscopic_family(0.4, 0.3, 1.1, seed=2),      # unit_dim 2
          gates.macroscopic_family(0.4, 0.0, 0.0, seed=3),      # unit_dim 4
          gates.controlled_rotation(np.pi - 0.02)]              # gap 1e-4
    return gs, build_transfer(gs, ChainSpec(2)).e


def test_stacked_spectral_bitwise_equals_per_matrix():
    _, e = _mixed_stack()
    for stack in (e, e[::-1], np.stack([e, e[[2, 0, 3, 1]]])):
        spec = spectral(stack)
        flat = stack.reshape(-1, 4, 4)
        unit_dims = np.ravel(spec.unit_dim)
        for i, m in enumerate(flat):
            one = spectral(m)
            assert isinstance(one.unit_dim, int)
            assert unit_dims[i] == one.unit_dim
            for name in ("values", "projector", "resolvent"):
                got = getattr(spec, name).reshape((len(flat),) + getattr(one, name).shape)[i]
                assert np.array_equal(got, getattr(one, name)), name
    assert sorted(np.ravel(spectral(e).unit_dim).tolist()) == [1, 1, 2, 4]


def test_stacked_transfer_equals_per_gate():
    gs, e = _mixed_stack()
    for g, m in zip(gs, e):
        assert np.array_equal(m, build_transfer(g, ChainSpec(2)).e)


def test_stacked_spectral_rejects_one_matrix_outside_unit_disk():
    _, e = _mixed_stack()
    bad = e.copy()
    bad[2] = 1.5 * bad[2]
    with pytest.raises(InputError, match="unit disk"):
        spectral(bad)


def test_transfer_set_spectrum_is_lazy_and_cached(monkeypatch):
    # finite-N correlators never compute the spectrum; every asymptotic
    # reader shares the one computed at UNIT_EIG_TOL on first read
    calls = []

    def counting(e, tol=transfer.UNIT_EIG_TOL):
        calls.append(tol)
        return spectral(e, tol=tol)

    monkeypatch.setattr(transfer, "spectral", counting)
    ts = build_transfer(gates.macroscopic_family(0.5, 0.3, 1.1, seed=3), ChainSpec(4))
    co.site_correlations(ts, transfer.SIGMA_Z, 6, [(1, 2)])
    co.additive_variance_exact(ts, transfer.SIGMA_Z, 6)
    assert calls == []
    co.asymptotic_variance(ts, transfer.SIGMA_Z)
    co.asymptotic_variance(ts, transfer.SIGMA_X)
    assert calls == [transfer.UNIT_EIG_TOL]
    assert ts.spectrum.tol == transfer.UNIT_EIG_TOL and ts.spectrum.unit_dim == 2
    assert spectral(ts.e, tol=1e-12).tol == 1e-12
