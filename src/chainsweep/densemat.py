"""Small dense complex matrix kernel.

Matrices are plain numpy ``complex128`` arrays in row-major order.  Everything
here targets the tiny sizes this package needs (n <= 8).  The numerical work
is LAPACK through numpy: Hermitian eigenproblems from ``eigh``, general
eigenvalues from ``eigvals`` in one fixed order (:func:`eigenvalue_order`),
and matrix powers.  The seeded gates are built by Gram-Schmidt and a seeded
orthonormal completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np

from .errors import ConvergenceError, InputError

# Sort keys closer than this times max|m_ij| are ties.  Keys that are equal
# in exact arithmetic come out of LAPACK apart by rounding: the moduli and
# real parts of a conjugate pair, or the roots of a multiple eigenvalue,
# which a Jordan block splits by about sqrt(eps)·|m|.  As ties they pass the
# decision to the next key or to LAPACK's order, which rounding cannot flip.
_GROUP_RADIUS = 1e-6


def as_matrix(values, stacked: bool = False) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array, or with ``stacked`` to a stack
    of them with any leading batch axes."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2 and not (stacked and m.ndim > 2):
        raise InputError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise InputError("matrix has non-finite entries")
    return m


def unbatch(x):
    """``x`` as a Python scalar when it has no batch axes, else unchanged."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def max_abs(m: np.ndarray) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def _rung(ladder: list, j: int) -> np.ndarray:
    """m^(2^j) of the ladder [m, m^2, m^4, ...], appending missing squares read-only."""
    while len(ladder) <= j:
        ladder.append(ladder[-1] @ ladder[-1])
        ladder[-1].setflags(write=False)
    return ladder[j]


def walk(start: np.ndarray, k, ladder: list) -> np.ndarray:
    """start @ m**k for a row stack ``start`` (..., r, d), multiplied by the
    squaring ladder [m, m^2, m^4, ...] bit by ascending bit of k.  ``m`` =
    ladder[0] may be a stack (..., d, d) and ``k`` an integer array, all
    broadcasting; only the rows whose own bit j is set take ``row @ m^(2^j)``,
    so each element is bitwise its scalar call.  ``ladder`` starts as [m];
    callers walking one m many times share it, so each square is formed once,
    and every value stays bitwise its cold call."""
    if isinstance(k, (int, np.integer)) and k > 0:
        out = start
        for j in range(int(k).bit_length()):
            out = out @ _rung(ladder, j) if k >> j & 1 else out
        return out
    k = np.asarray(k)
    if k.dtype.kind not in "iu" or (k < 0).any():
        raise InputError(f"powers must be nonnegative integers, got {k}")
    batch = np.broadcast_shapes(start.shape[:-2], ladder[0].shape[:-2], k.shape)
    out = np.broadcast_to(start, batch + start.shape[-2:]).astype(np.complex128, order="C")
    for j in range(int(k.max(initial=0)).bit_length()):
        out = np.where((k >> j & 1)[..., None, None] != 0, out @ _rung(ladder, j), out)
    return out


def walk_table(start: np.ndarray, count: int, ladder: list) -> np.ndarray:
    """start @ m**k for k = 0..count-1 along a new leading axis, doubled from
    the squaring ladder [m, ...]: block [2^j, 2^(j+1)) is block [0, 2^j) @
    m^(2^j), the top bit of its k, so each row is bitwise walk(start, k, ladder)."""
    table = np.empty((count,) + start.shape, dtype=np.complex128)
    table[:1] = start
    for j in range((count - 1).bit_length()):
        table[1 << j:2 << j] = table[:min(1 << j, count - (1 << j))] @ _rung(ladder, j)
    return table


def matpow(m: np.ndarray, k) -> np.ndarray:
    """m**k, the identity walked through a fresh squaring ladder [m]; ``m``
    and ``k`` may be stacked as in :func:`walk`, which shares ladders."""
    m = as_matrix(m, stacked=True)
    if m.shape[-2] != m.shape[-1]:
        raise InputError("matpow needs a square matrix")
    return walk(np.eye(m.shape[-1], dtype=np.complex128), k, [m])


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and orthonormal eigenvector columns of a
    Hermitian matrix."""
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise InputError("hermitian_eig needs a square matrix")
    if max_abs(h - h.conj().T) > 1e-10 * max(1.0, max_abs(h)):
        raise InputError("matrix is not Hermitian")
    return np.linalg.eigh(0.5 * (h + h.conj().T))


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


@dataclass
class EigenResult:
    """All n eigenvalues of a small general matrix, with algebraic
    multiplicity, in the order of :func:`eigenvalue_order`."""

    values: np.ndarray


def eigenvalue_order(scale: float):
    """Sort key: descending modulus, then descending real part, then
    descending imaginary part; differences within _GROUP_RADIUS * ``scale``
    are ties, so conjugate pairs list the positive imaginary part first."""
    radius = _GROUP_RADIUS * scale

    def compare(a: complex, b: complex) -> int:
        for x, y in ((abs(a), abs(b)), (a.real, b.real), (a.imag, b.imag)):
            if abs(x - y) > radius:
                return -1 if x > y else 1
        return 0

    return cmp_to_key(compare)


def sort_eigenvalues(lam: np.ndarray, scale) -> np.ndarray:
    """Each row of ``lam`` (..., n) in the order of :func:`eigenvalue_order`
    at its own ``scale`` (one float per row, broadcast), as complex128."""
    scales = np.broadcast_to(scale, lam.shape[:-1]).ravel()
    rows = zip(lam.reshape(scales.size, lam.shape[-1]).tolist(), scales.tolist())
    return np.array([sorted(row, key=eigenvalue_order(s)) for row, s in rows],
                    dtype=np.complex128).reshape(lam.shape)


def eig_general(m: np.ndarray) -> EigenResult:
    """Eigenvalues of a square matrix from LAPACK in the order of
    :func:`eigenvalue_order` (:func:`sort_eigenvalues`, as transfer.spectral)."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise InputError("eig_general needs a square matrix")
    return EigenResult(values=sort_eigenvalues(np.linalg.eigvals(m), max_abs(m)))
