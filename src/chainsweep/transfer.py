"""Kraus extraction, the MPS transfer matrix and boundary row of the sweep.

Vectorization convention: vec(|i><j|) = |i,j> with composite index 2i + j,
and (A x B)_{(i,k),(j,l)} = A_ij B_kl for Kronecker products.  Literal-entry
tests pin this because everything downstream breaks under a silent flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import densemat as dm
from .errors import ConvergenceError, InputError
from .gates import Gate, PAULI_X, PAULI_Y, PAULI_Z

ISOMETRY_TOL = 1e-12
UNIT_EIG_TOL = 1e-9
_DENSITY_TOL = 1e-10  # trace and positivity of a site density matrix

VEC_IDENTITY = np.array([1, 0, 0, 1], dtype=np.complex128)  # vec(I) = |00> + |11>


@dataclass(frozen=True)
class KrausPair:
    """The two 2x2 matrices extracted from a gate (or stacks of them, one
    pair per gate); they satisfy V0* V0^T + V1* V1^T = I."""

    v0: np.ndarray
    v1: np.ndarray

    def __post_init__(self):
        for name, v in (("v0", self.v0), ("v1", self.v1)):
            v = dm.as_matrix(v, stacked=True)
            if v.shape[-2:] != (2, 2):
                raise InputError(f"{name} must be 2x2")
            v.setflags(write=False)
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class ChainSpec:
    """Chain length plus the first-site amplitudes (c0, c1)."""

    n: int
    c0: complex = 1.0 + 0.0j
    c1: complex = 0.0 + 0.0j

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"chain needs at least 2 sites, got {self.n}")
        c0, c1 = complex(self.c0), complex(self.c1)
        norm = abs(c0) ** 2 + abs(c1) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise InputError(f"first-site amplitudes not normalized: |c0|^2+|c1|^2 = {norm}")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)

    @classmethod
    def plus_state(cls, n: int) -> "ChainSpec":
        r = 1.0 / np.sqrt(2.0)
        return cls(n, r, r)


@dataclass(frozen=True)
class LocalObservable:
    """A Hermitian single-site operator, or a stack of them along leading
    batch axes; :meth:`from_bloch` builds n . sigma.  Construction rejects any
    element that is not Hermitian to 1e-12, so every expectation value the
    package computes from an observable is real and no function re-checks."""

    matrix: np.ndarray

    def __post_init__(self):
        m = dm.as_matrix(self.matrix, stacked=True)
        if m.shape[-2:] != (2, 2):
            raise InputError("local observable must be 2x2")
        dev = dm.max_abs(m - np.swapaxes(m, -1, -2).conj())
        if dev > 1e-12:
            raise InputError(f"local observable is not Hermitian: max deviation {dev:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_bloch(cls, n) -> "LocalObservable":
        """n . sigma for the 3-vector n (last axis), normalized to unit length."""
        n = np.asarray(n, dtype=float)
        if n.shape[-1:] != (3,):
            raise InputError(f"bloch vector needs 3 components, got shape {n.shape}")
        nrm = np.sqrt(n[..., None, :] @ n[..., :, None])[..., 0]   # np.linalg.norm's dot
        if (nrm == 0).any():
            raise InputError("bloch vector must be nonzero")
        n = (n / nrm)[..., None, None]
        return cls(n[..., 0, :, :] * PAULI_X + n[..., 1, :, :] * PAULI_Y
                   + n[..., 2, :, :] * PAULI_Z)

    def squared(self) -> np.ndarray:
        return self.matrix @ self.matrix


SIGMA_X = LocalObservable.from_bloch([1.0, 0.0, 0.0])
SIGMA_Y = LocalObservable.from_bloch([0.0, 1.0, 0.0])
SIGMA_Z = LocalObservable.from_bloch([0.0, 0.0, 1.0])


def extract_kraus(gate) -> KrausPair:
    """(V_i)_{jk} = U_{ik, j0}: reads the two bond matrices off the columns
    of the gate that act on a fresh |0> qubit; a sequence of gates gives a stack."""
    u = gate.matrix if isinstance(gate, Gate) else np.stack([g.matrix for g in gate])
    v = np.ascontiguousarray(u[..., ::2].reshape(u.shape[:-2] + (2, 2, 2)).swapaxes(-1, -2))
    return KrausPair(v[..., 0, :, :], v[..., 1, :, :])


def check_isometry(kraus: KrausPair) -> float:
    """Max-entry deviation of V0* V0^T + V1* V1^T from the identity."""
    acc = sum(v.conj() @ np.swapaxes(v, -1, -2) for v in (kraus.v0, kraus.v1))
    return dm.max_abs(acc - np.eye(2))


def dressed_E(kraus: KrausPair, a: np.ndarray) -> np.ndarray:
    """E_A = sum_ij a_ij V_i* x V_j for any 2x2 operator ``a``, Hermitian or
    not, E itself being a = I; entry (2p + r, 2q + s) of a term is
    a_ij (V_i*)_pq (V_j)_rs.

    ``kraus`` and ``a`` may carry batch axes, which broadcast.  The terms are
    added to zero in the order (0,0), (0,1), (1,0), (1,1) (a zero a_ij adds
    exactly nothing, as if skipped), and each Kronecker entry is the one
    complex product numpy's Kronecker routine forms, so E and every E_A are
    bit-identical to that literal sum (tests/test_transfer.py pins this).
    """
    a = dm.as_matrix(a, stacked=True)
    v = np.stack((kraus.v0, kraus.v1), axis=-3)
    terms = v.conj()[..., :, None, :, None, :, None] * v[..., None, :, None, :, None, :]
    t = a[..., :, :, None, None] * terms.reshape(v.shape[:-3] + (2, 2, 4, 4))
    return 0.0 + t[..., 0, 0, :, :] + t[..., 0, 1, :, :] + t[..., 1, 0, :, :] + t[..., 1, 1, :, :]


def transfer_E(kraus: KrausPair) -> np.ndarray:
    """E = V0* x V0 + V1* x V1, the vectorized unital channel."""
    return dressed_E(kraus, np.eye(2))


def boundary_row(chain: ChainSpec) -> np.ndarray:
    """The row vector <v| of the rank-1 boundary |I><v| = sum_i W_i* x W_i,
    W_i = |i><phi*| with <phi*| = sum_i c_i <i| taken literally (no
    conjugation); satisfies <v|I> = 1."""
    c0, c1 = chain.c0, chain.c1
    return np.array([np.conj(c0) * c0, np.conj(c0) * c1,
                     np.conj(c1) * c0, np.conj(c1) * c1], dtype=np.complex128)


@dataclass(frozen=True)
class TransferSet:
    """Everything the correlator formulas need for one (gate, chain) pair, or
    a stack of gates on one chain; read-only, so it serves every chain length.
    ``spectrum`` (SpectralData of ``e`` at UNIT_EIG_TOL) is computed on first read."""

    kraus: KrausPair
    e: np.ndarray
    vrow: np.ndarray

    def dressed(self, a: np.ndarray) -> np.ndarray:
        """E_A for the 2x2 single-site operator ``a``."""
        return dressed_E(self.kraus, a)

    @cached_property
    def spectrum(self) -> "SpectralData":
        return spectral(self.e)


def build_transfer(gate, chain: ChainSpec) -> TransferSet:
    """The set of one Gate, or the stacked set of a sequence of them."""
    kraus = extract_kraus(gate)
    dev = check_isometry(kraus)
    if dev > ISOMETRY_TOL:
        raise InputError(f"Kraus pair violates the isometry constraint by {dev:.3e}")
    e = transfer_E(kraus)
    # With the boundary |I><v|, E|I> = |I> and <v|I> = |c0|^2 + |c1|^2 = 1
    # (checked by ChainSpec) imply E|I><v| = |I><v| and |I><v|I> = |I>.
    err = dm.max_abs(e @ VEC_IDENTITY - VEC_IDENTITY)
    if err > ISOMETRY_TOL:
        raise InputError(f"transfer invariant E|I> = |I> violated by {err:.3e}")
    vrow = boundary_row(chain)
    e.setflags(write=False)
    vrow.setflags(write=False)
    return TransferSet(kraus=kraus, e=e, vrow=vrow)


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of E, and the projector onto its unit eigenspace and the
    reduced resolvent; filled once by :func:`spectral`.  A stack of E of batch
    shape b gives b-stacked fields; for one E, ``unit_dim`` is an int.

    ``values`` are all four eigenvalues from LAPACK in the order of
    :func:`chainsweep.densemat.eigenvalue_order`.  ``unit_dim`` is the number
    of singular values of E - I at or below the unit tolerance.  E is a
    unital CP map, so its unit eigenvalue is semisimple and that null space
    is its whole eigenspace.  ``projector`` is P = sum_i |r_i><l_i| over
    biorthonormal right and left unit eigenvectors, r_0 = vec(I), so
    P|I> = |I> and tr P = unit_dim; ``resolvent`` is
    S = (1 - E + P)^{-1} - P, with S(1 - E) = 1 - P and S P = 0, exact also
    when the decaying block is defective.  ``tol`` counted ``unit_dim``, and
    the witness certificate reads it from here.  Every array is read-only.
    """

    values: np.ndarray
    unit_dim: int | np.ndarray
    projector: np.ndarray
    resolvent: np.ndarray
    tol: float

    def __post_init__(self):
        for name in ("values", "projector", "resolvent"):
            getattr(self, name).setflags(write=False)


def _resolvent_pair(e: np.ndarray, right: np.ndarray, left: np.ndarray):
    """P = right left and S = (1 - E + P)^{-1} - P."""
    pi = right @ left
    return pi, np.linalg.inv(np.eye(4, dtype=np.complex128) - e + pi) - pi


def _unit_space(e: np.ndarray, u: np.ndarray, vh: np.ndarray, k: int):
    """(P, S) of E stacked with unit dimension k, from the SVD u, vh of E - I."""
    left = np.swapaxes(u[:, :, 4 - k:].conj(), -1, -2)    # rows l with l E = l

    # Canonicalize: first right basis vector is vec(I) exactly; the others
    # are the leading left singular vectors of the unit space with vec(I)
    # projected out, orthonormal and orthogonal to it (Euclidean).  Taking
    # them from an SVD rather than Gram-Schmidt keeps a computed vector that
    # lies almost along vec(I) from amplifying its rounding error.  For
    # k = 1 the basis is vec(I) alone.
    right = np.broadcast_to(VEC_IDENTITY[:, None], (len(e), 4, 1))
    if k > 1:
        unit = np.swapaxes(vh[:, 4 - k:].conj(), -1, -2)   # columns r with E r = r
        rest = unit - VEC_IDENTITY[:, None] * (VEC_IDENTITY @ unit)[:, None, :] / 2.0
        right = np.concatenate([right, np.linalg.svd(rest)[0][..., :k - 1]], axis=-1)
    gram = left @ right
    if (np.linalg.svd(gram, compute_uv=False)[:, -1] < 1e-10).any():
        raise ConvergenceError("unit-space left/right pairing is singular")
    left = np.linalg.solve(gram, left)
    # One step of iterative refinement against the exact eigenvalue 1,
    # l <- l + l(E - I)S, which leaves <l|r> unchanged (S r = 0).  The linear
    # variance coefficient is about 1/gap^2-sensitive to the left vectors: a
    # controlled rotation at a = pi - 0.02 (gap 1e-4) otherwise turns their
    # rounding error into 9e-12 on a coefficient that is exactly 0.
    left = left + left @ (e - np.eye(4)) @ _resolvent_pair(e, right, left)[1]
    return _resolvent_pair(e, right, left)


def spectral(e: np.ndarray, tol: float = UNIT_EIG_TOL) -> SpectralData:
    """Eigenvalues of a transfer matrix, its unit eigenspace from one SVD of
    E - I, and that space's projector and reduced resolvent.  A stack of E is
    one pass, its unit spaces per unit dimension; any failed element raises."""
    e = dm.as_matrix(e, stacked=True)
    if e.shape[-2:] != (4, 4):
        raise InputError("transfer matrix must be 4x4")
    batch, e = e.shape[:-2], e.reshape(-1, 4, 4)
    values = np.array([sorted(lam, key=dm.eigenvalue_order(scale)) for lam, scale
                       in zip(np.linalg.eigvals(e).tolist(), np.abs(e).max(axis=(1, 2)))])
    moduli = np.abs(values)
    if (moduli > 1.0 + 1e-10).any():
        raise InputError(f"transfer spectrum leaves the unit disk: max |lambda| = {moduli.max()}")

    u, sv, vh = np.linalg.svd(e - np.eye(4))
    k = np.sum(sv <= tol, axis=-1)
    if (k == 0).any():
        raise InputError("transfer matrix has no unit eigenvalue; "
                         "the Kraus pair cannot come from a unitary gate")
    err = dm.max_abs(e @ VEC_IDENTITY - VEC_IDENTITY)
    if err > tol:
        raise InputError(f"transfer invariant E|I> = |I> violated by {err:.3e}")
    pi, s_res = np.empty_like(e), np.empty_like(e)
    for dim in set(k.tolist()):
        at = k == dim
        pi[at], s_res[at] = _unit_space(e[at], u[at], vh[at], dim)
    return SpectralData(values=values.reshape(batch + (4,)),
                        unit_dim=dm.unbatch(k.reshape(batch)),
                        projector=pi.reshape(batch + (4, 4)),
                        resolvent=s_res.reshape(batch + (4, 4)), tol=tol)


def site_density_recursion(kraus: KrausPair, rho_prev: np.ndarray) -> np.ndarray:
    """rho_n = sum_i V_i^T rho_{n-1} V_i*: the trace-preserving dual map that
    propagates single-site reduced density matrices down the chain."""
    rho = dm.as_matrix(rho_prev)
    if rho.shape != (2, 2):
        raise InputError("density matrix must be 2x2")
    if abs(np.trace(rho) - 1.0) > _DENSITY_TOL:
        raise InputError("density matrix must have unit trace")
    evals, _ = dm.hermitian_eig(rho)   # rejects a non-Hermitian rho
    if evals[0] < -_DENSITY_TOL:
        raise InputError(f"density matrix is not positive semidefinite (min eig {evals[0]:.3e})")
    out = np.zeros((2, 2), dtype=np.complex128)
    for v in (kraus.v0, kraus.v1):
        out += v.T @ rho @ v.conj()
    return out
