import numpy as np
import pytest

from chainsweep import densemat as dm
from chainsweep.errors import InputError


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


def _contraction(rng, shape):
    # spectral norm <= 1, so 10**12-th powers stay finite
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return m / np.linalg.norm(m, 2, axis=(-2, -1), keepdims=True)


POWERS = [0, 1, 2, 3, 2 ** 5, 2 ** 5 - 1, 2 ** 11, 2 ** 11 - 1, 20100, 10 ** 12]


def test_matpow_stack_with_scalar_power():
    stack = _contraction(np.random.default_rng(1), (5, 3, 3))
    for k in POWERS:
        got = dm.matpow(stack, k)
        assert got.shape == stack.shape
        for g, m in zip(got, stack):
            assert np.array_equal(g, dm.matpow(m, k))


def test_matpow_one_matrix_with_power_array():
    m = _contraction(np.random.default_rng(2), (4, 4))
    got = dm.matpow(m, np.array(POWERS))
    assert got.shape == (len(POWERS), 4, 4)
    for g, k in zip(got, POWERS):
        assert np.array_equal(g, dm.matpow(m, k))


def test_matpow_stack_with_power_array():
    stack = _contraction(np.random.default_rng(3), (len(POWERS), 4, 4))
    got = dm.matpow(stack, np.array(POWERS))
    for g, m, k in zip(got, stack, POWERS):
        assert np.array_equal(g, dm.matpow(m, k))
    # the powers broadcast against the batch: a (2, 1) k over a (3,) stack
    ks = np.array([[7], [20100]])
    got = dm.matpow(stack[:3], ks)
    assert got.shape == (2, 3, 4, 4)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(got[i, j], dm.matpow(stack[j], int(ks[i, 0])))
    assert np.array_equal(dm.matpow(stack[:3], np.zeros(3, dtype=int)),
                          np.broadcast_to(np.eye(4), (3, 4, 4)))


@pytest.mark.parametrize("shape, ks", [
    ((4, 4), POWERS[::-1] + POWERS),                 # scalar k, shrinking then growing
    ((4, 4), [np.array(POWERS), np.array([5, 0])]),  # array k
    ((3, 4, 4), [0, 20100, np.array([[3], [10 ** 12]]), 7, 0]),   # stacked m
])
def test_matpow_reused_ladder_equals_fresh_calls(shape, ks):
    # the ladder is shared through walk; matpow starts its own each call
    m = _contraction(np.random.default_rng(4), shape)
    eye = np.eye(4, dtype=np.complex128)
    ladder = [m]
    for k in ks:
        assert np.array_equal(dm.walk(eye, k, ladder), dm.matpow(m, k))
    assert len(ladder) == 40   # m^(2^j) up to the top bit of 10**12
    for j, square in enumerate(ladder[1:], 1):
        assert not square.flags.writeable
        assert np.array_equal(square, dm.matpow(m, 2 ** j))


def _ascending_walk(start, m, k):
    # start @ m**k, one squaring ladder step per bit of k, lowest bit first
    out, square = start, m
    while k:
        if k & 1:
            out = out @ square
        k >>= 1
        square = square @ square
    return out


@pytest.mark.parametrize("count", [1, 2, 7, 33, 1000])
@pytest.mark.parametrize("rows", [1, 3])
def test_walk_table_is_bitwise_the_walk(count, rows):
    rng = np.random.default_rng(count + rows)
    m = _contraction(rng, (4, 4))
    start = rng.standard_normal((rows, 4)) + 1j * rng.standard_normal((rows, 4))
    ladder = [m]
    table = dm.walk_table(start, count, ladder)
    assert table.shape == (count, rows, 4)
    assert np.array_equal(table, dm.walk(start, np.arange(count), ladder))
    for k in range(count):
        assert np.array_equal(table[k], _ascending_walk(start, m, k))
        assert np.array_equal(table[k], dm.walk(start, k, [m]))


def test_walk_stack_takes_only_its_own_bits():
    # a stacked m and start against an exponent array, each bitwise alone
    rng = np.random.default_rng(5)
    stack = _contraction(rng, (3, 4, 4))
    start = rng.standard_normal((3, 1, 4)) + 0j
    ks = np.array([[0], [5], [20100]])
    got = dm.walk(start, ks, [stack])
    assert got.shape == (3, 3, 1, 4)
    for i, j in np.ndindex(3, 3):
        assert np.array_equal(got[i, j], _ascending_walk(start[j], stack[j], int(ks[i, 0])))


@pytest.mark.parametrize("k", [np.array([3, -1]), np.array([2.5, 3.0]),
                               np.array([2.0, 3.0]), 2.0, -3, "4"])
def test_matpow_rejects_bad_powers(k):
    with pytest.raises(InputError):
        dm.matpow(np.eye(2), k)


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


def test_eig_defective_flagged():
    res = dm.eig_general(np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.allclose(res.values, 0.0, atol=1e-12)


def test_eig_ordering():
    res = dm.eig_general(np.diag([0.5, -0.5, 1.0, -1.0]).astype(complex))
    assert np.allclose(res.values, [1.0, -1.0, 0.5, -0.5], atol=1e-12)


def test_eig_values_match_numpy_multiset():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        res = dm.eig_general(m)
        got = np.sort_complex(res.values)
        ref = np.sort_complex(np.linalg.eigvals(m))
        assert np.max(np.abs(got - ref)) < 1e-8


def test_poly_roots_multiple():
    # (x-1)^4: raw iteration stalls at the rounding floor, the trace
    # refinement must restore the exact quadruple root.
    res = dm.eig_general(np.eye(4, dtype=complex) * 1.0)
    assert np.max(np.abs(res.values - 1.0)) < 1e-12
