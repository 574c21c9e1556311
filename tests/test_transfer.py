import numpy as np
import pytest

import chainsweep
from chainsweep import correlators as co, densemat as dm, gates, oracle, transfer
from chainsweep.errors import ConvergenceError, InputError
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


def _order_gates():
    return ([gates.squeezing_gate(c) for c in np.linspace(0.02, 1.5, 75)]  # fig4 grid
            + [gates.random_gate(seed) for seed in range(50)]
            + [gates.weyl_gate(a, np.pi / 2, np.pi / 2) for a in np.linspace(0, np.pi, 30)]
            + [gates.controlled_rotation(np.pi - 2 * 10.0 ** -k) for k in range(1, 6)]
            + [gates.macroscopic_family(0.3, 1, 2, seed=seed) for seed in range(5)])


def test_spectral_values_are_eig_general_values():
    # criterion 3 reads eig_general(E).values and spectrum prints
    # spectral(E).values: one order, bit for bit, stacked or one at a time
    es = np.array([transfer_E(extract_kraus(g)) for g in _order_gates()])
    stacked = spectral(es).values
    for e, row in zip(es, stacked):
        want = dm.eig_general(e).values
        assert np.array_equal(row, want)
        assert np.array_equal(spectral(e).values, want)


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
    assert np.sum(np.linalg.svd(x, compute_uv=False) > 1e-12) == 1
    assert np.max(np.abs(_row_boundary(chain) - x)) < 1e-15
    assert abs(boundary_row(chain) @ VEC_IDENTITY - 1.0) < 1e-15


def test_chain_spec_rejects_unnormalized():
    with pytest.raises(InputError):
        ChainSpec(3, 1.0, 0.5)
    with pytest.raises(InputError):
        ChainSpec(1, 1.0, 0.0)
    # NaN compares False both ways, so the check must fail it explicitly
    for c0, c1 in ((float("nan"), 0.0), (1.0, complex("nanj"))):
        with pytest.raises(InputError, match="not normalized"):
            ChainSpec(4, c0, c1)


@pytest.mark.parametrize("c0, c1", [(0.0, 1e200), (1e200j, 0.0), (1e300, 1e300j)])
def test_chain_spec_refuses_overflowing_amplitudes(c0, c1):
    # |c|^2 past the float range reads inf, where float ** raised OverflowError
    with pytest.raises(InputError, match="= inf"):
        ChainSpec(4, c0, c1)


@pytest.mark.parametrize("n", [4.5, 10.0, "10", None])
def test_chain_spec_rejects_non_integer_length(n):
    # ChainSpec(4.5) used to construct and fail later inside numpy
    with pytest.raises(InputError):
        ChainSpec(n)
    with pytest.raises(InputError):
        oracle.sweep(gates.random_gate(1), ChainSpec(n))


def test_chain_spec_length_is_an_int():
    n = ChainSpec(np.int64(5)).n
    assert n == 5 and type(n) is int


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


def test_constructors_keep_the_callers_array_writable():
    a = np.eye(2, dtype=complex)
    obs = LocalObservable(a)
    a[0, 0] = 2.0
    assert obs.matrix[0, 0] == 1.0 and not obs.matrix.flags.writeable
    v0 = np.array([[1, 0], [0, 0]], dtype=complex)
    pair = transfer.KrausPair(v0, np.array([[0, 0], [0, 1]], dtype=complex))
    v0[0, 0] = 5.0
    assert pair.v0[0, 0] == 1.0 and not pair.v0.flags.writeable
    u = np.eye(4, dtype=complex)
    gate = gates.Gate(u)
    u[0, 0] = -1.0
    assert gate.matrix[0, 0] == 1.0 and not gate.matrix.flags.writeable


def test_local_observable_rejects_non_hermitian():
    # checked over every element of a stack, at 1e-12 of the adjoint
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    x, z = transfer.SIGMA_X.matrix, transfer.SIGMA_Z.matrix
    for bad in (raising, np.stack([x, raising, z]), z + 2e-12 * raising):
        with pytest.raises(InputError, match="Hermitian"):
            LocalObservable(bad)
    assert LocalObservable(z + 5e-13 * raising).matrix.shape == (2, 2)


@pytest.mark.parametrize("bad", [[np.inf, 0.0, 0.0], [0.0, np.nan, 1.0],
                                 [1e308, 1e308, np.nan], [[1e200, 0.0, 0.0], [np.inf, 0.0, 0.0]],
                                 [[0.0, 0.0, 1.0], [0.0, -np.inf, 0.0]]])
def test_from_bloch_refuses_non_finite_vectors(bad):
    # once a component is not finite, also where n . n overflows beside it;
    # the suite turns a RuntimeWarning into an error, so none may be printed
    with pytest.raises(InputError, match="finite"):
        LocalObservable.from_bloch(bad)


_DIAGONAL = (1.0 / np.sqrt(2.0) * gates.PAULI_X + 1.0 / np.sqrt(2.0) * gates.PAULI_Y
             + 0.0 * gates.PAULI_Z)   # (1, 1, 0)/sqrt 2, literally


@pytest.mark.parametrize("v, want", [
    ([1e308, 1e308, 0.0], [_DIAGONAL]),   # n . n overflows to inf
    ([1e200, 0.0, 0.0], [gates.PAULI_X]),
    ([[1e200, 0.0, 0.0], [0.0, 0.0, 3.0]], [gates.PAULI_X, gates.PAULI_Z]),
])
def test_from_bloch_scales_an_overflowing_sum_of_squares(v, want):
    # finite directions, once refused because n . n overflowed; the scaling
    # by max|n_i| leaves the other elements of a stack as they were
    assert np.array_equal(LocalObservable.from_bloch(v).matrix, np.squeeze(want))
    assert np.array_equal(_DIAGONAL, LocalObservable.from_bloch([1.0, 1.0, 0.0]).matrix)


def test_from_bloch_keeps_finite_vectors_bitwise():
    # the literal n . sigma of n / sqrt(n . n), as the refusal found it
    rng = np.random.default_rng(11)
    for v in [*rng.standard_normal((50, 3)), [1e150, -3e150, 2e149], [1e-150, 0.0, 2e-150]]:
        n = np.asarray(v, dtype=float)
        u = n / np.sqrt(n[None, :] @ n[:, None])[0]
        want = u[0] * gates.PAULI_X + u[1] * gates.PAULI_Y + u[2] * gates.PAULI_Z
        assert np.array_equal(LocalObservable.from_bloch(v).matrix, want)


@pytest.mark.parametrize("v, want", [
    ([1e-160, 0.0, 0.0], [gates.PAULI_X]),   # n . n = 1e-320, subnormal
    ([1e-200, 0.0, 0.0], [gates.PAULI_X]),   # n . n underflows to 0
    ([0.0, -5e-324, 0.0], [-gates.PAULI_Y]),
    ([[1e-200, 0.0, 0.0], [0.0, 0.0, 3.0]], [gates.PAULI_X, gates.PAULI_Z]),
])
def test_from_bloch_scales_a_subnormal_sum_of_squares(v, want):
    # its square root had lost digits: 1e-160 gave 1.0000055664551362 sigma_x,
    # and 1e-200 was refused as a zero vector
    assert np.array_equal(LocalObservable.from_bloch(v).matrix, np.squeeze(want))


def test_from_bloch_refuses_zero_vectors():
    for zero in ([0.0, 0.0, 0.0], [[1e-200, 0.0, 0.0], [0.0, -0.0, 0.0]]):
        with pytest.raises(InputError, match="nonzero"):
            LocalObservable.from_bloch(zero)


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
    return gs, build_transfer(gates.Gate(np.stack([g.matrix for g in gs])), ChainSpec(2)).e


def _fig4_transfer_set():
    # the 75 squeezing gates of fig4's default grid, one stacked transfer set
    return build_transfer(gates.squeezing_gate(np.linspace(0.02, 1.5, 75)), ChainSpec(2))


def test_stacked_spectral_bitwise_equals_per_matrix():
    _, e = _mixed_stack()
    fig4 = _fig4_transfer_set().e   # one unit dimension: the stack goes in whole
    assert np.ravel(spectral(fig4).unit_dim).tolist() == [1] * 75
    for stack in (e, e[::-1], np.stack([e, e[[2, 0, 3, 1]]]), fig4):
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


# u of an SVD of E - I whose last two left singular vectors, the left unit
# vectors for k <= 2, are orthogonal to vec(I): (0, 1, 0, 0) and
# (1, 0, 0, -1) / sqrt 2
_R = 1.0 / np.sqrt(2.0)
_U_ORTHOGONAL = np.array([[_R, 0, 0, _R], [0, 0, 1, 0], [0, 1, 0, 0], [_R, 0, 0, -_R]],
                         dtype=np.complex128)


@pytest.mark.parametrize("k", [1, 2])
def test_unit_space_refuses_a_singular_pairing(k, monkeypatch):
    # left unit vectors that miss vec(I) have no biorthonormal pair with
    # r_0 = vec(I); for k = 1 the pairing is |<l|I>|, with no SVD, and for
    # k = 2 the smallest singular value of the 2x2 gram, from one SVD
    e = build_transfer(gates.random_gate(5) if k == 1
                       else gates.macroscopic_family(0.4, 0.3, 1.1, seed=2), ChainSpec(2)).e
    assert spectral(e).unit_dim == k
    u, _, vh = np.linalg.svd(e - np.eye(4))
    grams, svd = [], np.linalg.svd

    def recording_svd(a, *args, **kw):
        if kw.get("compute_uv") is False:
            grams.append(np.shape(a))
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    transfer._unit_space(e[None], u[None], vh[None], k)   # a regular pairing passes
    for stack in ([_U_ORTHOGONAL], [u, _U_ORTHOGONAL]):   # alone, second of two
        n = len(stack)
        with pytest.raises(ConvergenceError, match="pairing is singular"):
            transfer._unit_space(np.stack([e] * n), np.stack(stack), np.stack([vh] * n), k)
    assert grams == ([] if k == 1 else [(1, 2, 2), (1, 2, 2), (2, 2, 2)])


def test_dressed_on_identity_is_the_closed_dressing():
    # E_B|I> from columns 0 and 3 of the Kronecker terms is bitwise E_B @ vec(I)
    rng = np.random.default_rng(32)
    bloch = LocalObservable.from_bloch(rng.standard_normal((75, 3))).matrix
    ops = [bloch @ bloch, bloch[0] @ bloch[0], transfer.SIGMA_Z.matrix,
           rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))]
    for zero in ([0, 1], [1, 0], [1, 1]):   # exact zero entries
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b[tuple(zero)] = 0.0
        ops += [b, b.real + 0j, np.diag(np.diag(b))]
    for seed in list(range(200)) + [None]:
        ts = (_fig4_transfer_set() if seed is None
              else build_transfer(gates.random_gate(seed), ChainSpec(2)))
        for b in ops:
            got = ts.dressed_on_identity(b)
            assert np.array_equal(got, ts.dressed(b) @ VEC_IDENTITY)
            assert got.shape == np.broadcast_shapes(ts.e.shape[:-2], b.shape[:-2]) + (4,)


def test_stacked_transfer_equals_per_gate():
    gs, e = _mixed_stack()
    for g, m in zip(gs, e):
        assert np.array_equal(m, build_transfer(g, ChainSpec(2)).e)


def test_spectral_values_are_sorted_on_first_read():
    # one sort helper for both: each row is bitwise eig_general's values,
    # read-only, and a second read returns the stored array
    _, e = _mixed_stack()
    spec = spectral(e)
    values = spec.values
    assert not values.flags.writeable and spec.values is values
    for row, m in zip(values, e):
        assert np.array_equal(row, dm.eig_general(m).values)


def test_transfer_set_dresses_its_kept_terms_bitwise():
    # the Kronecker terms are formed once per transfer set; E and every E_A
    # weighed from them are bitwise dressed_E and transfer_E of its Kraus pair
    gs, _ = _mixed_stack()
    rng = np.random.default_rng(29)
    a = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    for g in (gs[0], gates.Gate(np.stack([g.matrix for g in gs]))):
        ts = build_transfer(g, ChainSpec(2))
        assert not ts.terms.flags.writeable
        assert np.array_equal(ts.e, transfer_E(ts.kraus))
        for x in (transfer.SIGMA_Y.matrix, a[0], a):   # Hermitian, not, stacked
            assert np.array_equal(ts.dressed(x), dressed_E(ts.kraus, x))


def _chained_asymptotic(ts, obs):
    # asymptotic_variance with every chain of products written out in full
    # and associated left to right: the shared row products must equal it
    ea = dressed_E(ts.kraus, obs.matrix)
    ea2_i = (dressed_E(ts.kraus, obs.matrix @ obs.matrix) @ VEC_IDENTITY)[..., None]
    a = obs.matrix.reshape(obs.matrix.shape[:-2] + (4,))[..., None]
    v = ts.vrow[None, :]
    pi, s_res = ts.spectrum.projector, ts.spectrum.resolvent
    v_pi = v @ pi
    head = v_pi @ ea
    mean_inf, kappa = head @ VEC_IDENTITY, head @ pi @ ea @ VEC_IDENTITY
    quad = (kappa - mean_inf ** 2)[..., 0].real
    s_inf = (v_pi @ ea2_i)[..., 0]
    cross = v_pi @ ea @ s_res @ ea @ VEC_IDENTITY
    cross = cross + v @ s_res @ ea @ pi @ ea @ VEC_IDENTITY
    boundary = (v_pi @ ea @ pi @ a)[..., 0]
    nu_inf = (v_pi @ a)[..., 0]
    c_mean = -mean_inf + v @ s_res @ ea @ VEC_IDENTITY + nu_inf
    lin = (s_inf - 3.0 * kappa + 2.0 * cross + 2.0 * boundary
           - 2.0 * mean_inf * c_mean)[..., 0].real
    err = (8.0 * np.finfo(float).eps * np.linalg.norm(s_res, axis=(-2, -1))
           * np.linalg.norm(ea, axis=(-2, -1)) ** 2)
    return quad, lin, err


def test_asymptotic_variance_equals_its_chained_products():
    gs, _ = _mixed_stack()
    chain = ChainSpec(2, 0.6, 0.8j)
    stack = build_transfer(gates.Gate(np.stack([g.matrix for g in gs])), chain)
    dirs = LocalObservable.from_bloch([[0.36, 0.48, 0.8], [1.0, -2.0, 0.5],
                                       [0.0, 0.0, 1.0], [-0.3, 0.1, 0.9]])
    for obs in (transfer.SIGMA_X, dirs):
        got = co.asymptotic_variance(stack, obs)
        want = _chained_asymptotic(stack, obs)
        for name, w in zip(("quadratic_coeff", "linear_coeff", "error_estimate"), want):
            assert np.array_equal(getattr(got, name), w), name
    for i, g in enumerate(gs):
        ts, obs = build_transfer(g, chain), LocalObservable(dirs.matrix[i])
        got = co.asymptotic_variance(ts, obs)
        quad, lin, err = _chained_asymptotic(ts, obs)
        assert (got.quadratic_coeff, got.linear_coeff, got.error_estimate) == (quad, lin, err)


def test_stacked_spectral_rejects_one_matrix_outside_unit_disk():
    _, e = _mixed_stack()
    bad = e.copy()
    bad[2] = 1.5 * bad[2]
    with pytest.raises(InputError, match="unit disk"):
        spectral(bad)


def test_transfer_set_spectrum_is_lazy_and_cached(monkeypatch):
    # the site correlators never compute the spectrum; the collective mean
    # and the finite-N variance read their shift from it, and they and every
    # asymptotic reader share the one computed at UNIT_EIG_TOL on first read
    calls = []

    def counting(e, tol=transfer.UNIT_EIG_TOL):
        calls.append(tol)
        return spectral(e, tol=tol)

    monkeypatch.setattr(transfer, "spectral", counting)
    ts = build_transfer(gates.macroscopic_family(0.5, 0.3, 1.1, seed=3), ChainSpec(4))
    co.site_correlations(ts, transfer.SIGMA_Z, 6, [(1, 2)])
    assert calls == []
    co.collective_mean(ts, transfer.SIGMA_Z, 6)
    assert calls == [transfer.UNIT_EIG_TOL]
    co.additive_variance_exact(ts, transfer.SIGMA_Z, 6)
    co.additive_variance_exact(ts, transfer.SIGMA_Z, 7)
    co.additive_variance_exact(ts, transfer.SIGMA_X, 6)
    assert calls == [transfer.UNIT_EIG_TOL]
    co.asymptotic_variance(ts, transfer.SIGMA_Z)
    co.asymptotic_variance(ts, transfer.SIGMA_X)
    assert calls == [transfer.UNIT_EIG_TOL]
    assert ts.spectrum.tol == transfer.UNIT_EIG_TOL and ts.spectrum.unit_dim == 2
    assert spectral(ts.e, tol=1e-12).tol == 1e-12


def _lazy_spectrum_gates():
    # random gates take the eager path (||E||_inf about 1.3 to 2), Weyl and
    # squeezing gates the proven one (1 + O(eps)), the family gates both
    return ([gates.random_gate(seed) for seed in range(100)]
            + [gates.macroscopic_family(0.3 + 0.1 * s, 1.0, 2.0 - 0.2 * s, seed=s)
               for s in range(5)]
            + [gates.macroscopic_family(0.4, 0.0, 0.0, seed=3)]
            + [gates.weyl_gate(a, np.pi / 2, np.pi / 2) for a in np.linspace(0, np.pi, 10)]
            + [gates.weyl_gate(*np.random.default_rng(s).uniform(0, np.pi, 3))
               for s in range(10)]
            + [gates.squeezing_gate(chi_t) for chi_t in (0.0, 0.6, 1.5)])


def _sorted_lapack(e):
    # what an eager spectral reported: one eigvals call on E, sorted at max|e|
    return dm.sort_eigenvalues(np.linalg.eigvals(e), np.abs(e).max(axis=(-2, -1)))


def test_spectral_values_are_the_sorted_lapack_values():
    es = [build_transfer(g, ChainSpec(2)).e for g in _lazy_spectrum_gates()]
    for e in es + [_fig4_transfer_set().e, _mixed_stack()[1], np.stack(es)]:
        assert np.array_equal(spectral(e).values, _sorted_lapack(e))


def test_spectral_runs_eigvals_once_where_the_row_sum_bound_fails(eigvals_calls):
    # rho(E) <= ||E||_inf: where the largest absolute row sum is at most
    # 1 + 1e-10, the unit disk needs no eigenvalue and eigvals waits for the
    # first read of values; otherwise the check runs it and values reuses it
    proven = []
    for g in _lazy_spectrum_gates():
        e = build_transfer(g, ChainSpec(2)).e
        proven.append(np.abs(e).sum(-1).max() <= 1.0 + 1e-10)
        eigvals_calls.clear()
        spec = spectral(e)
        assert len(eigvals_calls) == (0 if proven[-1] else 1)
        assert spec.values is spec.values
        assert eigvals_calls == [(1, 4, 4)]
    assert proven[:105] == [False] * 105 and all(proven[106:])
    eigvals_calls.clear()
    spec = spectral(_fig4_transfer_set().e)
    spec.values, spec.values
    assert eigvals_calls == [(75, 4, 4)]


def test_row_sum_bound_keeps_computed_moduli_in_the_unit_disk():
    # seeded complex 4x4 matrices with every row sum of |e_ij| in
    # [1 - 1e-6, 1 + 1e-10], dense or near-diagonal with unimodular-phase
    # diagonals (moduli near their row sums): no computed modulus passes
    # the check's 1 + 1e-10, so the bound skips no eigvals that would raise
    rng = np.random.default_rng(34)
    for off in (1.0, 1e-3, 1e-8):
        m = rng.standard_normal((2000, 4, 4)) + 1j * rng.standard_normal((2000, 4, 4))
        m = off * m + np.exp(2j * np.pi * rng.random((2000, 4)))[..., None] * np.eye(4)
        target = rng.uniform(1.0 - 1e-6, 1.0 + 1e-10, (2000, 4))
        m *= (target / np.abs(m).sum(-1))[..., None]
        assert np.abs(m).sum(-1).max() <= 1.0 + 1e-10
        assert np.abs(np.linalg.eigvals(m)).max() <= 1.0 + 1e-10


def test_spectral_keeps_the_matrix_its_values_are_read_from():
    # the proven path reads eigvals later: a writable input is copied, so
    # writing to it after spectral does not change the values
    e = np.array(build_transfer(gates.squeezing_gate(0.6), ChainSpec(2)).e)
    want = _sorted_lapack(e)
    spec = spectral(e)
    e[...] = 0.0
    assert np.array_equal(spec.values, want)


@pytest.mark.parametrize("call,error,fragment", [
    (lambda: spectral(np.eye(3)), InputError, "must be 4x4"),
    (lambda: spectral(0.5 * np.eye(4)), InputError, "no unit eigenvalue"),
    (lambda: spectral(np.diag([1.0, 1.0, 1.0, 0.5])), InputError, "E|I> = |I> violated"),
    (lambda: transfer.KrausPair(np.eye(3), np.eye(3)), InputError, "v0 must be 2x2"),
    (lambda: LocalObservable(np.eye(3)), InputError, "must be 2x2"),
    (lambda: gates.Gate(np.eye(4), family="nope"), InputError, "unknown gate family"),
    (lambda: gates.conjugated_gate(gates.identity_gate(), np.eye(3), np.eye(2)),
     InputError, "rotations must be 2x2"),
    (lambda: oracle.StateVector(2, np.ones(3) / np.sqrt(3)), InputError,
     "expected 4 amplitudes"),
    (lambda: oracle.sweep(gates.identity_gate(), ChainSpec(4), upto=4), InputError,
     "prefix length 4 outside 0..3"),
    (lambda: dm.as_matrix(np.ones(3)), InputError, "expected a 2-D matrix"),
    (lambda: dm.matpow(np.ones((2, 3)), 2), InputError, "square matrix"),
    (lambda: dm.hermitian_eig(np.ones((2, 3))), InputError, "square matrix"),
    (lambda: dm.eig_general(np.ones((2, 3))), InputError, "square matrix"),
    (lambda: dm.mgs_orthonormalize(np.ones((3, 2))), InputError, "numerically dependent"),
    (lambda: dm.orthonormal_complete(np.ones((2, 3))), InputError, "more columns than rows"),
    (lambda: site_density_recursion(extract_kraus(gates.identity_gate()), np.eye(3) / 3),
     InputError, "density matrix must be 2x2"),
], ids=["spectral-3x3", "spectral-no-unit", "spectral-not-unital", "kraus-3x3",
        "observable-3x3", "gate-family", "conjugated-3x3", "state-length", "sweep-prefix",
        "as-matrix-1d", "matpow-non-square", "hermitian-eig-non-square",
        "eig-general-non-square", "mgs-dependent", "complete-too-many", "density-3x3"])
def test_library_refusals(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)
