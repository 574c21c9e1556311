"""Kraus extraction and the MPS transfer/boundary operators of the sweep.

Vectorization convention: vec(|i><j|) = |i,j> with composite index 2i + j,
matching the Kronecker convention in :mod:`chainsweep.densemat`.  A fixture
test pins this bit-exactly because everything downstream breaks under a
silent flip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import densemat as dm
from .errors import ConvergenceError, InputError
from .gates import Gate, PAULI_X, PAULI_Y, PAULI_Z

ISOMETRY_TOL = 1e-12
UNIT_EIG_TOL = 1e-9

VEC_IDENTITY = np.array([1, 0, 0, 1], dtype=np.complex128)  # vec(I) = |00> + |11>


@dataclass(frozen=True)
class KrausPair:
    """The two 2x2 matrices extracted from a gate; they satisfy
    V0* V0^T + V1* V1^T = I because the gate is unitary."""

    v0: np.ndarray
    v1: np.ndarray

    def __post_init__(self):
        for name, v in (("v0", self.v0), ("v1", self.v1)):
            v = dm.as_matrix(v)
            if v.shape != (2, 2):
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
    """A single-site operator; ``bloch`` is set when it is n . sigma."""

    matrix: np.ndarray
    bloch: np.ndarray | None = None

    def __post_init__(self):
        m = dm.as_matrix(self.matrix)
        if m.shape != (2, 2):
            raise InputError("local observable must be 2x2")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.bloch is not None:
            b = np.asarray(self.bloch, dtype=float)
            if b.shape != (3,):
                raise InputError("bloch vector must have 3 components")
            if abs(np.linalg.norm(b) - 1.0) > 1e-12:
                raise InputError("bloch vector must have unit norm")
            b.setflags(write=False)
            object.__setattr__(self, "bloch", b)

    @classmethod
    def from_bloch(cls, n) -> "LocalObservable":
        n = np.asarray(n, dtype=float)
        nrm = np.linalg.norm(n)
        if nrm == 0:
            raise InputError("bloch vector must be nonzero")
        n = n / nrm
        m = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
        return cls(m, bloch=n)

    def squared(self) -> np.ndarray:
        return self.matrix @ self.matrix

    @property
    def is_hermitian(self) -> bool:
        return dm.max_abs(self.matrix - self.matrix.conj().T) <= 1e-12


SIGMA_X = LocalObservable.from_bloch([1.0, 0.0, 0.0])
SIGMA_Y = LocalObservable.from_bloch([0.0, 1.0, 0.0])
SIGMA_Z = LocalObservable.from_bloch([0.0, 0.0, 1.0])


def extract_kraus(gate: Gate) -> KrausPair:
    """(V_i)_{jk} = U_{ik, j0}: reads the two bond matrices off the columns
    of the gate that act on a fresh |0> qubit."""
    u = gate.matrix
    v = np.empty((2, 2, 2), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                v[i, j, k] = u[2 * i + k, 2 * j]
    return KrausPair(v[0], v[1])


def check_isometry(kraus: KrausPair) -> float:
    """Max-entry deviation of V0* V0^T + V1* V1^T from the identity."""
    acc = kraus.v0.conj() @ kraus.v0.T + kraus.v1.conj() @ kraus.v1.T
    return dm.max_abs(acc - np.eye(2))


def transfer_E(kraus: KrausPair) -> np.ndarray:
    """E = V0* x V0 + V1* x V1, the vectorized unital channel."""
    return dm.kron(kraus.v0.conj(), kraus.v0) + dm.kron(kraus.v1.conj(), kraus.v1)


def _boundary_w(chain: ChainSpec) -> list[np.ndarray]:
    # W_i = |i><phi*| with <phi*| = sum_i c_i <i| taken literally (no conjugation).
    phi_row = np.array([chain.c0, chain.c1], dtype=np.complex128)
    return [np.outer(np.eye(2, dtype=np.complex128)[:, i], phi_row) for i in range(2)]


def boundary_X(chain: ChainSpec) -> np.ndarray:
    """X = sum_i W_i* x W_i, a rank-1 matrix with E X = X and X|I> = |I>."""
    w = _boundary_w(chain)
    return sum(dm.kron(wi.conj(), wi) for wi in w)


def boundary_row(chain: ChainSpec) -> np.ndarray:
    """The row vector <v| with X = |I><v|; satisfies <v|I> = 1."""
    c0, c1 = chain.c0, chain.c1
    return np.array([np.conj(c0) * c0, np.conj(c0) * c1,
                     np.conj(c1) * c0, np.conj(c1) * c1], dtype=np.complex128)


def dressed_E(kraus: KrausPair, obs: LocalObservable) -> np.ndarray:
    """E_A = sum_ij <i|A|j> V_i* x V_j."""
    a = obs.matrix
    vs = (kraus.v0, kraus.v1)
    out = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            if a[i, j] != 0:
                out += a[i, j] * dm.kron(vs[i].conj(), vs[j])
    return out


def dressed_X(chain: ChainSpec, obs: LocalObservable) -> np.ndarray:
    """X_A = sum_ij <i|A|j> W_i* x W_j."""
    a = obs.matrix
    w = _boundary_w(chain)
    out = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            if a[i, j] != 0:
                out += a[i, j] * dm.kron(w[i].conj(), w[j])
    return out


@dataclass(frozen=True)
class TransferSet:
    """Everything the correlator formulas need for one (gate, chain) pair."""

    gate: Gate
    chain: ChainSpec
    kraus: KrausPair
    e: np.ndarray
    x: np.ndarray
    vrow: np.ndarray

    def dressed(self, obs: LocalObservable) -> np.ndarray:
        return dressed_E(self.kraus, obs)

    def dressed_boundary(self, obs: LocalObservable) -> np.ndarray:
        return dressed_X(self.chain, obs)


def build_transfer(gate: Gate, chain: ChainSpec) -> TransferSet:
    kraus = extract_kraus(gate)
    dev = check_isometry(kraus)
    if dev > ISOMETRY_TOL:
        raise InputError(f"Kraus pair violates the isometry constraint by {dev:.3e}")
    e = transfer_E(kraus)
    x = boundary_X(chain)
    for name, err in (
        ("E|I> = |I>", dm.max_abs(e @ VEC_IDENTITY - VEC_IDENTITY)),
        ("EX = X", dm.max_abs(e @ x - x)),
        ("X|I> = |I>", dm.max_abs(x @ VEC_IDENTITY - VEC_IDENTITY)),
    ):
        if err > ISOMETRY_TOL:
            raise InputError(f"transfer invariant {name} violated by {err:.3e}")
    return TransferSet(gate=gate, chain=chain, kraus=kraus, e=e, x=x,
                       vrow=boundary_row(chain))


@dataclass
class SpectralData:
    """Eigenvalues of E with the unit eigenspace singled out and canonicalized.

    ``values`` are all four eigenvalues in the order of
    :func:`chainsweep.densemat.eig_general`.  ``unit_right`` columns span the
    lambda = 1 eigenspace with the first column equal to vec(I);
    ``unit_left`` rows are the biorthonormal partners (<l_i|r_j> = delta_ij).
    ``unit_dim`` is cross-checked against 4 - rank(E - I).
    ``jordan_warning`` is set when algebraic and geometric unit
    multiplicities disagree.
    """

    values: np.ndarray
    unit_dim: int
    unit_right: np.ndarray
    unit_left: np.ndarray
    jordan_warning: bool = False

    def unit_projector(self) -> np.ndarray:
        return self.unit_right @ self.unit_left

    def reduced_resolvent(self, e: np.ndarray) -> np.ndarray:
        """S with S(1-E) = (1-E)S = 1 - P on the non-unit block and S P = 0.

        Computed as (1 - E + P)^{-1} - P, which needs no eigenvectors of the
        decaying block and stays exact when that block is defective.
        """
        pi = self.unit_projector()
        return dm.solve(np.eye(4, dtype=np.complex128) - e + pi, np.eye(4)) - pi


def spectral(e: np.ndarray, tol: float = UNIT_EIG_TOL) -> SpectralData:
    """Eigendecomposition of a transfer matrix with unit-eigenspace handling."""
    e = dm.as_matrix(e)
    if e.shape != (4, 4):
        raise InputError("transfer matrix must be 4x4")
    res = dm.eig_general(e, tol=max(tol, 1e-9))
    moduli = np.abs(res.values)
    if np.any(moduli > 1.0 + 1e-10):
        raise InputError(f"transfer spectrum leaves the unit disk: max |lambda| = {moduli.max()}")

    alg_dim = int(np.sum(np.abs(res.values - 1.0) < tol))
    unit_dim = 4 - dm.rank_with_tol(e - np.eye(4), tol)
    unit = [col for col, idx in enumerate(res.vector_index)
            if abs(res.values[idx] - 1.0) < tol]
    if not unit:
        raise InputError("transfer matrix has no unit eigenvalue; "
                         "the Kraus pair cannot come from a unitary gate")
    right = res.right[:, unit]
    left = res.left[unit]
    k = len(unit)

    # Canonicalize: first right basis vector is vec(I) exactly; the others
    # are the leading left singular vectors of the unit space with vec(I)
    # projected out, orthonormal and orthogonal to it (Euclidean).  Taking
    # them from an SVD rather than Gram-Schmidt keeps a computed vector that
    # lies almost along vec(I) from amplifying its rounding error.
    gram_r = right.conj().T @ right
    proj = right @ dm.solve(gram_r, right.conj().T @ VEC_IDENTITY)
    if dm.max_abs(proj - VEC_IDENTITY) > 1e-8:
        raise ConvergenceError("vec(I) is not inside the computed unit eigenspace")
    rest = right - np.outer(VEC_IDENTITY, VEC_IDENTITY @ right) / 2.0
    u, s, _ = np.linalg.svd(rest)
    if k > 1 and s[k - 2] <= 1e-7:
        raise ConvergenceError("failed to canonicalize the unit eigenspace basis")
    right = np.column_stack([VEC_IDENTITY, u[:, :k - 1]])
    gram = left @ right
    gs = dm.singular_values(gram)
    if gs[-1] < 1e-10:
        raise ConvergenceError("unit-space left/right pairing is singular")
    spec = SpectralData(values=res.values, unit_dim=unit_dim, unit_right=right,
                        unit_left=dm.solve(gram, left),
                        jordan_warning=alg_dim != unit_dim or k != unit_dim)
    # One step of iterative refinement against the exact eigenvalue 1,
    # l <- l + l(E - I)S, which leaves <l|r> unchanged (S r = 0).  The linear
    # variance coefficient is about 1/gap^2-sensitive to the left vectors: a
    # controlled rotation at a = pi - 0.02 (gap 1e-4) otherwise turns their
    # rounding error into 9e-12 on a coefficient that is exactly 0.  S does
    # not exist when the unit eigenvalue looks defective.
    if not spec.jordan_warning:
        spec.unit_left = spec.unit_left + (spec.unit_left @ (e - np.eye(4))
                                           @ spec.reduced_resolvent(e))
    return spec


def site_density_recursion(kraus: KrausPair, rho_prev: np.ndarray,
                           tol: float = 1e-10) -> np.ndarray:
    """rho_n = sum_i V_i^T rho_{n-1} V_i*: the trace-preserving dual map that
    propagates single-site reduced density matrices down the chain."""
    rho = dm.as_matrix(rho_prev)
    if rho.shape != (2, 2):
        raise InputError("density matrix must be 2x2")
    if dm.max_abs(rho - rho.conj().T) > tol:
        raise InputError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise InputError("density matrix must have unit trace")
    evals, _ = dm.hermitian_eig(0.5 * (rho + rho.conj().T))
    if evals[0] < -tol:
        raise InputError(f"density matrix is not positive semidefinite (min eig {evals[0]:.3e})")
    out = np.zeros((2, 2), dtype=np.complex128)
    for v in (kraus.v0, kraus.v1):
        out += v.T @ rho @ v.conj()
    return out
