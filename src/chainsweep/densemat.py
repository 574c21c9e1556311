"""Small dense complex matrix kernel.

Matrices are plain numpy ``complex128`` arrays in row-major order.  Everything
here targets the tiny sizes this package needs (n <= 8).  The numerical work
is LAPACK through numpy: eigenvalues from ``eigvals``, eigenvectors as SVD
null spaces, Hermitian eigenproblems from ``eigh``, singular values and
solves.  What this module adds is the bookkeeping a general eigenproblem
leaves to the caller: the rounding scatter of a multiple eigenvalue is
grouped back into one value with its algebraic and geometric multiplicity,
the eigenvalue order is fixed, left/right pairs are biorthonormal, and a
residual check raises instead of returning bad vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key

import numpy as np

from .errors import ConvergenceError, InputError

_EPS = np.finfo(float).eps

MAX_EIG_SIZE = 8

# Eigenvalues closer than this times max|m_ij| are one multiple eigenvalue.
# Rounding splits a double root with a Jordan block by about sqrt(eps)·|m|
# (up to 5.8e-8 relative under the 200 random similarities of the Jordan
# test in tests/test_densemat.py); distinct eigenvalues closer than the
# radius are merged and then fail the residual check.
_GROUP_RADIUS = 1e-6


def as_matrix(values) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2:
        raise InputError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix has non-finite entries")
    return m


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise InputError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with composite row index i*b.rows + k, i.e.
    out[(i,k),(j,l)] = a[i,j] * b[k,l]."""
    return np.kron(as_matrix(a), as_matrix(b))


def adjoint(m: np.ndarray) -> np.ndarray:
    return as_matrix(m).conj().T


def transpose(m: np.ndarray) -> np.ndarray:
    return as_matrix(m).T


def conj_entries(m: np.ndarray) -> np.ndarray:
    return as_matrix(m).conj()


def trace(m: np.ndarray) -> complex:
    return complex(np.trace(as_matrix(m)))


def max_abs(m: np.ndarray) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def matpow(m: np.ndarray, k: int) -> np.ndarray:
    """m**k by repeated squaring; m**0 is the identity."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise InputError("matpow needs a square matrix")
    if k < 0 or int(k) != k:
        raise InputError(f"power must be a nonnegative integer, got {k}")
    k = int(k)
    result = np.eye(m.shape[0], dtype=np.complex128)
    base = m.copy()
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and orthonormal eigenvector columns of a
    Hermitian matrix."""
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise InputError("hermitian_eig needs a square matrix")
    if max_abs(h - h.conj().T) > 1e-10 * max(1.0, max_abs(h)):
        raise InputError("matrix is not Hermitian")
    return np.linalg.eigh(0.5 * (h + h.conj().T))


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values, descending."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def rank_with_tol(m: np.ndarray, tol: float) -> int:
    """Number of singular values above tol."""
    return int(np.sum(singular_values(m) > tol))


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b; raises on a singular matrix."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InputError("solve needs a square matrix")
    try:
        return np.linalg.solve(a, np.asarray(b, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise InputError("singular matrix in solve") from exc


def mgs_orthonormalize(m: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of m by modified Gram-Schmidt (two passes)."""
    q = as_matrix(m).copy()
    n, k = q.shape
    for _ in range(2):
        for j in range(k):
            for i in range(j):
                q[:, j] -= (q[:, i].conj() @ q[:, j]) * q[:, i]
            nrm = np.linalg.norm(q[:, j])
            if nrm < 1e-13:
                raise InputError("columns are numerically dependent")
            q[:, j] /= nrm
    return q


def orthonormal_complete(cols: np.ndarray, seed: int = 0) -> np.ndarray:
    """Complete an orthonormal column set to a full unitary.

    The given columns are kept verbatim; the missing ones are drawn from a
    seeded complex Gaussian and orthogonalized against everything before them,
    so the completion is deterministic per seed.
    """
    cols = as_matrix(cols)
    n, k = cols.shape
    if k > n:
        raise InputError("more columns than rows")
    gram_dev = max_abs(cols.conj().T @ cols - np.eye(k))
    if gram_dev > 1e-10:
        raise InputError(f"input columns not orthonormal (deviation {gram_dev:.3e})")
    rng = np.random.default_rng(seed)
    out = np.zeros((n, n), dtype=np.complex128)
    out[:, :k] = cols
    for j in range(k, n):
        for _attempt in range(8):
            vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for _pass in range(2):
                for i in range(j):
                    vec -= (out[:, i].conj() @ vec) * out[:, i]
            nrm = np.linalg.norm(vec)
            if nrm > 1e-6:
                out[:, j] = vec / nrm
                break
        else:
            raise ConvergenceError("failed to complete the orthonormal set")
    return out


# ---------------------------------------------------------------------------
# General eigensolver
# ---------------------------------------------------------------------------

@dataclass
class EigenResult:
    """Spectral data of a small general matrix.

    ``values`` carries all n eigenvalues with algebraic multiplicity, sorted
    by descending modulus (ties: descending real part, then positive
    imaginary part first; moduli and real parts that agree to the grouping
    radius count as ties).  ``right`` holds eigenvector columns and ``left``
    eigenvector rows; ``vector_index[j]`` says which entry of ``values``
    column/row j belongs to.  When ``complete_basis`` is true there is
    exactly one vector per eigenvalue, left/right pairs are biorthonormal
    (<l_i|r_j> = delta_ij), and sum_i values[i] * right[:,i] left[i,:]
    reconstructs the matrix.  For a defective matrix only the geometric
    eigenvectors are returned and ``complete_basis`` is false.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    vector_index: np.ndarray
    residual: float
    complete_basis: bool
    # (eigenvalue, algebraic multiplicity, geometric multiplicity) per root
    multiplicities: list[tuple[complex, int, int]] = field(default_factory=list)


def _group(raw: np.ndarray, radius: float) -> list[tuple[complex, int]]:
    """Single-linkage clusters of eigenvalues within ``radius``, as
    (centroid, count): the centroid of a split multiple root is accurate far
    below the split itself."""
    clusters: list[list[complex]] = []
    for z in raw:
        near = [c for c in clusters if min(abs(z - w) for w in c) <= radius]
        clusters = [c for c in clusters if all(c is not d for d in near)]
        clusters.append([z] + [w for c in near for w in c])
    return [(complex(np.mean(c)), len(c)) for c in clusters]


def _compare(a: complex, b: complex, radius: float) -> int:
    """Descending modulus, then descending real part, then descending
    imaginary part; differences within ``radius`` are ties."""
    for x, y in ((abs(a), abs(b)), (a.real, b.real), (a.imag, b.imag)):
        if abs(x - y) > radius:
            return -1 if x > y else 1
    return 0


def eig_general(m: np.ndarray, tol: float = 1e-9) -> EigenResult:
    """Full eigendecomposition of a general complex matrix of size <= 8.

    Eigenvalues come from LAPACK and are grouped into multiple roots; each
    group's geometric multiplicity and its right and left eigenvectors come
    from the SVD null spaces of m - mu I, and non-defective groups are
    biorthonormalized.  Raises ConvergenceError instead of returning vectors
    whose residual exceeds ``tol``.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise InputError("eig_general needs a square matrix")
    if n > MAX_EIG_SIZE:
        raise InputError(f"eig_general handles size <= {MAX_EIG_SIZE}, got {n}")
    scale = max_abs(m)
    if scale == 0.0:
        eye = np.eye(n, dtype=np.complex128)
        return EigenResult(values=np.zeros(n, dtype=np.complex128), right=eye,
                           left=eye.copy(), vector_index=np.arange(n),
                           residual=0.0, complete_basis=True,
                           multiplicities=[(0.0 + 0.0j, n, n)])
    radius = _GROUP_RADIUS * scale
    groups = sorted(_group(np.linalg.eigvals(m), radius),
                    key=cmp_to_key(lambda a, b: _compare(a[0], b[0], radius)))

    vec_gate = max(tol, 1e4 * _EPS) * scale
    values: list[complex] = []
    right_cols: list[np.ndarray] = []
    left_rows: list[np.ndarray] = []
    vec_index: list[int] = []
    multiplicities: list[tuple[complex, int, int]] = []
    complete = True
    for mu, alg in groups:
        u, sv, vh = np.linalg.svd(m - mu * np.eye(n))
        geo = min(max(int(np.sum(sv <= vec_gate)), 1), alg)
        rights = vh[n - geo:].conj().T         # columns r with m r = mu r
        lefts = u[:, n - geo:].conj().T        # rows l with l m = mu l
        if geo == alg:
            gram = lefts @ rights
            if singular_values(gram)[-1] < 1e-10:
                raise ConvergenceError(
                    f"left/right pairing is singular at eigenvalue {mu:.6g}")
            lefts = solve(gram, lefts)
        else:
            complete = False
        vec_index.extend(range(len(values), len(values) + geo))
        values.extend([mu] * alg)
        multiplicities.append((mu, alg, geo))
        right_cols.extend(rights.T)
        left_rows.extend(lefts)

    values_arr = np.array(values, dtype=np.complex128)
    right = np.column_stack(right_cols)
    left = np.vstack(left_rows)
    residual = max_abs(m @ right - right * values_arr[vec_index])
    if residual > tol * max(1.0, scale):
        raise ConvergenceError(
            f"eigen-residual {residual:.3e} exceeds tolerance {tol:.1e}")
    return EigenResult(values=values_arr, right=right, left=left,
                       vector_index=np.array(vec_index, dtype=int),
                       residual=residual, complete_basis=complete,
                       multiplicities=multiplicities)
