import numpy as np
import pytest

from chainsweep import densemat as dm, gates, oracle, transfer
from chainsweep.errors import InputError
from chainsweep.transfer import (ChainSpec, LocalObservable, VEC_IDENTITY,
                                 boundary_X, build_transfer, check_isometry,
                                 dressed_E, dressed_X, extract_kraus,
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


def test_boundary_X_zero_state():
    x = boundary_X(ChainSpec(3, 1.0, 0.0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 0] = 1.0
    assert np.max(np.abs(x - expected)) < 1e-15


def test_boundary_X_plus_state():
    # Literal sum W_i* x W_i for c = (1,1)/sqrt(2): |I> times the uniform row.
    x = boundary_X(ChainSpec.plus_state(3))
    expected = 0.5 * np.outer(VEC_IDENTITY, np.ones(4))
    assert np.max(np.abs(x - expected)) < 1e-15


def test_boundary_X_rank_one():
    x = boundary_X(ChainSpec(4, 0.6, 0.8j))
    assert dm.rank_with_tol(x, 1e-12) == 1


def test_chain_spec_rejects_unnormalized():
    with pytest.raises(InputError):
        ChainSpec(3, 1.0, 0.5)
    with pytest.raises(InputError):
        ChainSpec(1, 1.0, 0.0)


def test_dressed_identity_reduces():
    k = extract_kraus(gates.random_gate(11))
    chain = ChainSpec(4, 0.6, 0.8)
    ident = LocalObservable(np.eye(2, dtype=complex))
    assert np.max(np.abs(dressed_E(k, ident) - transfer_E(k))) < 1e-14
    assert np.max(np.abs(dressed_X(chain, ident) - boundary_X(chain))) < 1e-14


def test_dressed_E_weyl_structure():
    # E_A maps |00> to x*z A01 |01> + x z* A10 |10> plus a |00>,|11> component.
    x, y, z, w = gates.weyl_params(0.8, 0.5, 1.1)
    k = extract_kraus(gates.weyl_gate(0.8, 0.5, 1.1))
    obs = LocalObservable.from_bloch([0.3, 0.5, np.sqrt(1 - 0.09 - 0.25)])
    a = obs.matrix
    col = dressed_E(k, obs)[:, 0]
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
    assert np.max(np.abs(dressed_E(k, obs) - expected)) < 1e-14


def test_dressed_E_linearity():
    k = extract_kraus(gates.random_gate(21))
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = dressed_E(k, LocalObservable(a + b))
    rhs = dressed_E(k, LocalObservable(a)) + dressed_E(k, LocalObservable(b))
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_transfer_invariants_all_families_and_random():
    # fixed-point identities and the isometry constraint for every family
    # and 1000 seeded random gates; spectral modulus on a subset (eig is the
    # expensive part, and criterion 3 covers the closed-form spectra)
    candidates = ALL_FAMILIES + [gates.random_gate(seed) for seed in range(1000)]
    chain = ChainSpec(4, 0.6, 0.8j)
    for idx, g in enumerate(candidates):
        ts = build_transfer(g, chain)
        assert np.max(np.abs(ts.e @ VEC_IDENTITY - VEC_IDENTITY)) < 1e-12
        assert np.max(np.abs(ts.e @ ts.x - ts.x)) < 1e-12
        assert np.max(np.abs(ts.x @ VEC_IDENTITY - VEC_IDENTITY)) < 1e-12
        assert check_isometry(ts.kraus) < 1e-12
        if idx < 100:
            assert np.all(np.abs(dm.eig_general(ts.e).values) <= 1 + 1e-10)


def test_spectral_identity_gate():
    sd = spectral(transfer_E(extract_kraus(gates.identity_gate())))
    assert sd.unit_dim == 1
    assert np.array_equal(sd.unit_right[:, 0], VEC_IDENTITY)
    assert abs(sd.unit_left[0] @ sd.unit_right[:, 0] - 1.0) < 1e-12


def test_spectral_degenerate_weyl():
    alpha = 0.7
    sd = spectral(transfer_E(extract_kraus(gates.weyl_gate(alpha, np.pi / 2, np.pi / 2))))
    assert sd.unit_dim == 2
    got = np.sort_complex(sd.values)
    expected = np.sort_complex(np.array([1, 1, np.sin(alpha), np.sin(alpha)],
                                        dtype=complex))
    assert np.max(np.abs(got - expected)) < 1e-9
    pi = sd.unit_projector()
    assert np.max(np.abs(pi @ pi - pi)) < 1e-9


def test_spectral_squeezing_left_vector():
    chi_t = 0.5
    sd = spectral(transfer_E(extract_kraus(gates.squeezing_gate(chi_t))))
    w2 = np.sin(chi_t) ** 2
    expected = np.array([1, 0, 0, w2]) / (1 + w2)
    assert np.max(np.abs(sd.unit_left[0] - expected)) < 1e-12


def test_spectral_reconstruction():
    e = transfer_E(extract_kraus(gates.random_gate(31)))
    res = dm.eig_general(e)
    rec = sum(res.values[res.vector_index[j]] * np.outer(res.right[:, j], res.left[j])
              for j in range(res.right.shape[1]))
    assert np.max(np.abs(rec - e)) < 1e-9


def test_reduced_resolvent_identity():
    # S must satisfy S (1 - E) = 1 - P on the whole space and S P = 0.
    e = transfer_E(extract_kraus(gates.random_gate(13)))
    sd = spectral(e)
    pi = sd.unit_projector()
    s = sd.reduced_resolvent(e)
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
