import numpy as np
import pytest

from chainsweep import densemat as dm
from chainsweep.errors import InputError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_matmul_identity():
    m = np.arange(4).reshape(2, 2).astype(complex)
    assert np.array_equal(dm.matmul(np.eye(2), m), m)


def test_matmul_orthogonal_projectors():
    out = dm.matmul(np.diag([1.0, 0.0]).astype(complex),
                    np.diag([0.0, 1.0]).astype(complex))
    assert np.array_equal(out, np.zeros((2, 2)))


def test_matmul_pauli_algebra():
    out = dm.matmul(PAULI_X, PAULI_Y)
    assert np.max(np.abs(out - 1j * PAULI_Z)) == 0


def test_matmul_rejects_mismatch():
    with pytest.raises(InputError):
        dm.matmul(np.ones((2, 3)), np.ones((2, 2)))


def test_kron_identities():
    assert np.array_equal(dm.kron(np.eye(2), np.eye(2)), np.eye(4))
    zz = dm.kron(PAULI_Z, PAULI_Z)
    assert np.array_equal(zz, np.diag([1, -1, -1, 1]).astype(complex))


def test_kron_index_convention():
    # |0><0| x |1><1| must land at row 1 = 0*2+1, col 1: a silent flip of the
    # composite index breaks every transfer-matrix formula downstream.
    a = np.array([[1, 0], [0, 0]], dtype=complex)
    b = np.array([[0, 0], [0, 1]], dtype=complex)
    out = dm.kron(a, b)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = 1
    assert np.array_equal(out, expected)


def test_kron_mixed_product_property():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                      for _ in range(4))
        lhs = dm.kron(a, b) @ dm.kron(c, d)
        rhs = dm.kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_matpow_basics():
    m = np.array([[0.5, 0], [0, 1]], dtype=complex)
    assert np.array_equal(dm.matpow(m, 0), np.eye(2))
    assert np.max(np.abs(dm.matpow(m, 10) - np.diag([0.5 ** 10, 1.0]))) < 1e-15


@pytest.mark.parametrize("k", [1, 2, 3, 7, 16])
def test_matpow_matches_naive(k):
    rng = np.random.default_rng(k)
    m = 0.6 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    naive = np.eye(4, dtype=complex)
    for _ in range(k):
        naive = naive @ m
    assert np.max(np.abs(dm.matpow(m, k) - naive)) < 1e-10


def test_matpow_rejects_negative():
    with pytest.raises(InputError):
        dm.matpow(np.eye(2), -1)


def test_adjoint_transpose_conj_trace():
    m = np.array([[1 + 2j, 3], [4j, 5]], dtype=complex)
    assert np.array_equal(dm.adjoint(m), m.conj().T)
    assert np.array_equal(dm.transpose(m), m.T)
    assert np.array_equal(dm.conj_entries(m), m.conj())
    assert dm.trace(m) == m[0, 0] + m[1, 1]


def test_rejects_nonfinite():
    with pytest.raises(InputError):
        dm.as_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_hermitian_eig_matches_numpy():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 6):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a + a.conj().T
        w, v = dm.hermitian_eig(h)
        assert np.max(np.abs(h @ v - v @ np.diag(w))) < 1e-11
        assert np.allclose(w, np.sort(np.linalg.eigvalsh(h)), atol=1e-11)


def test_svd_and_rank():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m[:, 2] = 2.0 * m[:, 1]
    s = dm.singular_values(m)
    assert np.allclose(s, np.linalg.svd(m, compute_uv=False), atol=1e-12)
    assert dm.rank_with_tol(m, 1e-9) == 3


def test_orthonormal_complete_unitary_and_deterministic():
    cols = np.array([[1, 0], [0, 0], [0, 1], [0, 0]], dtype=complex)
    u1 = dm.orthonormal_complete(cols, seed=5)
    u2 = dm.orthonormal_complete(cols, seed=5)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(4))) < 1e-12
    assert np.array_equal(u1, u2)
    assert np.array_equal(u1[:, :2], cols)


def test_orthonormal_complete_rejects_non_orthonormal():
    with pytest.raises(InputError):
        dm.orthonormal_complete(np.array([[1.0], [1.0]], dtype=complex), seed=0)


def test_eig_diagonal_example():
    res = dm.eig_general(np.diag([1, 0.5, -0.25, 0]).astype(complex))
    assert np.allclose(res.values, [1, 0.5, -0.25, 0], atol=1e-12)
    assert res.complete_basis


def _char_poly_roots_check(m, claimed):
    """Independent check: the claimed eigenvalues must zero the characteristic
    polynomial built from determinants of shifted matrices."""
    for lam in claimed:
        shifted = m - lam * np.eye(m.shape[0])
        assert abs(np.linalg.det(shifted)) < 1e-9


def test_eig_transfer_of_identity_gate():
    # E for the trivial gate, built directly from the Kraus definition:
    # V0 = e00, V1 = e10 -> E = V0* x V0 + V1* x V1.
    v0 = np.array([[1, 0], [0, 0]], dtype=complex)
    v1 = np.array([[0, 0], [1, 0]], dtype=complex)
    e = np.kron(v0.conj(), v0) + np.kron(v1.conj(), v1)
    res = dm.eig_general(e)
    assert np.allclose(sorted(np.abs(res.values), reverse=True), [1, 0, 0, 0],
                       atol=1e-12)
    _char_poly_roots_check(e, res.values)


def test_eig_quadruple_unit():
    res = dm.eig_general(np.eye(4, dtype=complex))
    assert np.max(np.abs(res.values - 1.0)) < 1e-12
    assert res.complete_basis


def test_eig_reconstruction_random():
    rng = np.random.default_rng(4)
    for _ in range(25):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        res = dm.eig_general(m)
        assert res.complete_basis
        rec = sum(res.values[res.vector_index[j]]
                  * np.outer(res.right[:, j], res.left[j])
                  for j in range(4))
        assert np.max(np.abs(rec - m)) < 1e-9
        assert res.residual <= 1e-9 * max(1.0, np.max(np.abs(m)))


def test_eig_biorthonormal_when_simple():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    res = dm.eig_general(m)
    assert np.max(np.abs(res.left @ res.right - np.eye(4))) < 1e-10


def test_eig_defective_flagged():
    res = dm.eig_general(np.array([[0, 1], [0, 0]], dtype=complex))
    assert not res.complete_basis
    assert np.allclose(res.values, 0.0, atol=1e-12)
    (_, alg, geo), = res.multiplicities
    assert alg == 2 and geo == 1


def test_eig_ordering():
    res = dm.eig_general(np.diag([0.5, -0.5, 1.0, -1.0]).astype(complex))
    assert np.allclose(res.values, [1.0, -1.0, 0.5, -0.5], atol=1e-12)


def test_eig_size_cap():
    with pytest.raises(InputError):
        dm.eig_general(np.eye(9, dtype=complex))


def test_eig_values_match_numpy_multiset():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        res = dm.eig_general(m, tol=1e-8)
        got = np.sort_complex(res.values)
        ref = np.sort_complex(np.linalg.eigvals(m))
        assert np.max(np.abs(got - ref)) < 1e-8


def test_solve_and_singular_rejection():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal(4)
    x = dm.solve(a, b)
    assert np.max(np.abs(a @ x - b)) < 1e-11
    with pytest.raises(InputError):
        dm.solve(np.zeros((2, 2)), np.ones(2))


def test_poly_roots_multiple():
    # (x-1)^4: raw iteration stalls at the rounding floor, the trace
    # refinement must restore the exact quadruple root.
    res = dm.eig_general(np.eye(4, dtype=complex) * 1.0)
    assert np.max(np.abs(res.values - 1.0)) < 1e-12


def test_eig_jordan_block_under_similarity():
    # A defective double root splits by ~sqrt(eps) under rounding; it must
    # come back as one eigenvalue with one eigenvector, whatever the basis.
    j = np.array([[1.0, 0, 0, 0], [0, -0.3, 0, 0], [0, 0, 0.5, 1.0], [0, 0, 0, 0.5]],
                 dtype=complex)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        res = dm.eig_general(s @ j @ np.linalg.inv(s))
        assert sorted((alg, geo) for _, alg, geo in res.multiplicities) == [
            (1, 1), (1, 1), (2, 1)], seed
        assert not res.complete_basis
