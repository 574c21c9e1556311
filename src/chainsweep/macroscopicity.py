"""Effective-size analysis: when does the sweep build macroscopic superpositions.

The dichotomy is spectral: a non-degenerate unit eigenvalue of the transfer
matrix kills the N^2 variance term, a degenerate one allows it.  The same
dichotomy has a structural form (a common eigenvector of the Kraus pair
carrying all the weight), implemented here as an executable test that must
agree with the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import correlators, densemat as dm
from .errors import InputError, ToleranceError
from .gates import Gate
from .transfer import (ChainSpec, LocalObservable, SpectralData, TransferSet,
                       build_transfer, spectral)


@dataclass
class MacroReport:
    """Outcome of the effective-size maximization for one gate."""

    unit_dimension: int
    neff_coeff: float
    best_direction: np.ndarray
    witness: np.ndarray | None = None


@dataclass
class MacroClassification:
    is_macroscopic: bool
    witness: np.ndarray | None
    witness_bloch: np.ndarray | None
    commutator_norm: float
    unit_dimension: int


def _neff_from_unit_space(ts: TransferSet, spec: SpectralData,
                          obs: LocalObservable) -> float:
    """Coefficient of N in the variance, from unit-eigenspace data only.

    For a doubly degenerate unit eigenvalue this is the explicit two-vector
    expression Q_01 Q_10 + P Q_10 (Q_11 - Q_00 - P Q_10) in the canonical
    basis (first vector vec(I)); it extends to higher degeneracy through the
    same matrix elements.
    """
    k = spec.unit_right.shape[1]
    if k == 1:
        return 0.0
    ea = ts.dressed(obs)
    q = spec.unit_left @ ea @ spec.unit_right      # Q_uu' = <l_u|E_A|r_u'>
    p = ts.vrow @ spec.unit_right                  # P_u = <v|r_u>, P_0 = 1
    r = q[:, 0]                                    # R_u = <l_u|E_A|vec(I)>
    total = 0.0 + 0.0j
    mean = complex(p @ r)
    for u in range(k):
        for up in range(k):
            total += p[u] * q[u, up] * r[up]
    return correlators._real(complex(total - mean ** 2), scale=4.0)


def neff(gate: Gate, chain: ChainSpec, direction, tol: float = 1e-9) -> float:
    """Effective-size coefficient (of N) for the additive observable sum n.sigma."""
    obs = LocalObservable.from_bloch(direction)
    ts = build_transfer(gate, chain)
    spec = spectral(ts.e, tol=tol)
    if spec.jordan_warning:
        raise ToleranceError("unit eigenspace of E looks defective; "
                             "effective size is not defined spectrally")
    val = _neff_from_unit_space(ts, spec, obs)
    # The coefficient is a variance prefactor; clip the rounding dust.
    return max(val, 0.0)


def neff_optimize(gate: Gate, chain: ChainSpec) -> MacroReport:
    """Maximize the effective-size coefficient over unit Bloch directions.

    The coefficient is a quadratic form n^T M n in the Bloch vector.  Six
    evaluations, on the axes and on the face diagonals (e_i + e_j)/sqrt(2),
    fix the symmetric 3x3 M; its top eigenpair is the maximum and the best
    direction (unit norm, sign fixed so the largest component is positive).
    The coefficient is evaluated again at that direction, and a mismatch
    with the eigenvalue raises instead of returning.
    """
    ts = build_transfer(gate, chain)
    spec = spectral(ts.e)
    if spec.unit_right.shape[1] == 1:
        report_dir = np.array([0.0, 0.0, 1.0])
        return MacroReport(unit_dimension=spec.unit_dim, neff_coeff=0.0,
                           best_direction=report_dir)

    def value(n_vec) -> float:
        return _neff_from_unit_space(ts, spec, LocalObservable.from_bloch(n_vec))

    eye = np.eye(3)
    form = np.diag([value(axis) for axis in eye])
    for i, j in ((0, 1), (0, 2), (1, 2)):
        form[i, j] = form[j, i] = (value(eye[i] + eye[j])
                                   - 0.5 * (form[i, i] + form[j, j]))
    evals, evecs = np.linalg.eigh(form)
    top = float(evals[-1])
    direction = evecs[:, -1]
    # eigh's vectors are unit only to an ulp; renormalized, a direction on an
    # axis has that component exactly +-1 (1 - 1 ulp reads as 1.5e-8 rad
    # through acos).
    direction = (direction * np.sign(direction[np.argmax(np.abs(direction))])
                 / np.linalg.norm(direction))
    achieved = value(direction)
    if abs(achieved - top) > 1e-10 * max(1.0, abs(top)):
        raise ToleranceError(
            f"effective size is not quadratic in the direction: neff(n*) = "
            f"{achieved!r} against the top eigenvalue {top!r}")
    classification = classify_macroscopic(gate)
    # The coefficient is a variance prefactor; clip the rounding dust.
    return MacroReport(unit_dimension=spec.unit_dim, neff_coeff=max(top, 0.0),
                       best_direction=direction,
                       witness=classification.witness)


def _eigvecs_2x2(m: np.ndarray) -> list[np.ndarray] | None:
    """Unit eigenvectors of a 2x2 matrix; None means every vector qualifies
    (m is a multiple of the identity)."""
    res = dm.eig_general(m, tol=1e-7)
    if any(alg == 2 and geo == 2 for _, alg, geo in res.multiplicities):
        return None
    return [res.right[:, j] for j in range(res.right.shape[1])]


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    phase = v[idx] / abs(v[idx])
    out = v / phase
    return out / np.linalg.norm(out)


def _bloch_of_state(v: np.ndarray) -> np.ndarray:
    from .gates import PAULI_X, PAULI_Y, PAULI_Z
    return np.array([np.real(v.conj() @ p @ v) for p in (PAULI_X, PAULI_Y, PAULI_Z)])


def classify_macroscopic(gate: Gate, tol: float = 1e-8) -> MacroClassification:
    """Structural test for macroscopicity: a common eigenvector of the Kraus
    pair whose eigenvalues exhaust the weight (|mu0|^2 + |mu1|^2 = 1).

    Cross-checked against the spectral criterion (degenerate unit eigenvalue
    of E); a disagreement raises instead of returning a silent answer.
    """
    ts = build_transfer(gate, ChainSpec(2))
    spec = spectral(ts.e, tol=max(tol, 1e-9))
    v0, v1 = ts.kraus.v0, ts.kraus.v1
    comm_norm = dm.max_abs(v0 @ v1 - v1 @ v0)

    candidates = _eigvecs_2x2(v0)
    if candidates is None:
        candidates = _eigvecs_2x2(v1)
    if candidates is None:
        candidates = [np.array([1.0, 0.0], dtype=np.complex128)]

    hits: list[tuple[np.ndarray, complex, complex]] = []
    for cand in candidates:
        cand = cand / np.linalg.norm(cand)
        mu0 = complex(cand.conj() @ v0 @ cand)
        mu1 = complex(cand.conj() @ v1 @ cand)
        if (np.linalg.norm(v0 @ cand - mu0 * cand) <= tol
                and np.linalg.norm(v1 @ cand - mu1 * cand) <= tol
                and abs(abs(mu0) ** 2 + abs(mu1) ** 2 - 1.0) <= tol):
            hits.append((cand, mu0, mu1))

    structural = bool(hits)
    spectral_verdict = spec.unit_dim >= 2
    if structural != spectral_verdict:
        raise ToleranceError(
            f"structural test ({structural}) disagrees with unit-eigenvalue "
            f"degeneracy ({spec.unit_dim}); tolerance pathology at tol={tol:g}")

    witness = witness_bloch = None
    if hits:
        # The channel-invariant pure state is the conjugate of the common
        # eigenvector; pick the lexicographically largest Bloch vector for
        # reproducibility.
        states = [_canonical_phase(np.conj(c)) for c, _, _ in hits]
        blochs = [_bloch_of_state(s) for s in states]
        order = sorted(range(len(states)),
                       key=lambda i: tuple(np.round(blochs[i], 12)), reverse=True)
        witness = states[order[0]]
        witness_bloch = blochs[order[0]]
    return MacroClassification(is_macroscopic=structural, witness=witness,
                               witness_bloch=witness_bloch,
                               commutator_norm=comm_norm,
                               unit_dimension=spec.unit_dim)


def variance_sweep(gate: Gate, chain_amplitudes: tuple[complex, complex],
                   obs: LocalObservable, n_list) -> list[dict]:
    """Exact collective variance over a list of chain lengths, with the
    empirical log-log slope between consecutive entries."""
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InputError("N list must be strictly ascending")
    rows: list[dict] = []
    prev = None
    for n in n_list:
        chain = ChainSpec(n, *chain_amplitudes)
        ts = build_transfer(gate, chain)
        var = correlators.additive_variance_exact(ts, obs, n,
                                                  with_asymptotics=False).total
        slope = None
        if prev is not None and prev[1] > 0 and var > 0:
            slope = (np.log(var) - np.log(prev[1])) / (np.log(n) - np.log(prev[0]))
        rows.append({"n": n, "variance": var, "slope": slope})
        prev = (n, var)
    return rows
