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
from .gates import Gate, PAULI_X, PAULI_Y, PAULI_Z
from .transfer import (ChainSpec, KrausPair, LocalObservable, SpectralData,
                       TransferSet, VEC_IDENTITY, build_transfer, spectral)

# Top eigenvalues of the effective-size form at or below this many eps times
# max(1, max|M|) are rounding noise: 8e-50 to 2.2e-16 on controlled
# rotations within 2e-5 of pi, where the threshold is about 5.7e-14,
# against >= 2e-3 on 60 Weyl-degenerate and macroscopic-family gates.
_FORM_NOISE = 256.0

# Residual and weight tolerance of the structural common-eigenvector test.
_STRUCTURAL_TOL = 1e-8

_EPS = float(np.finfo(float).eps)


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
    unit_dimension: int
    spectrum: SpectralData


def _neff_value(ts: TransferSet, spec: SpectralData, direction) -> float:
    """Coefficient of N^2 in the variance of sum n.sigma, kappa - mean^2 from
    the unit-space moments of one dressing; 0 for a non-degenerate unit
    eigenvalue."""
    obs = LocalObservable.from_bloch(direction)
    if spec.unit_dim == 1:
        return 0.0
    pi = spec.projector
    mean, kappa = correlators._unit_moments(ts.vrow @ pi, pi, ts.dressed(obs.matrix))
    return correlators._real(kappa - mean ** 2, scale=4.0)


def _neff_form(ts: TransferSet, spec: SpectralData) -> np.ndarray:
    """The symmetric 3x3 M with n^T M n = _neff_value(n): E_A is linear in A,
    so M = sym(<v|P E_a P E_b|I>) - m m^T over the Pauli dressings E_a,
    m_a = <v|P E_a|I>."""
    pi = spec.projector
    v_pi = ts.vrow @ pi
    eas = [ts.dressed(p) for p in (PAULI_X, PAULI_Y, PAULI_Z)]
    heads = np.array([v_pi @ ea for ea in eas])                 # <v|P E_a
    cols = np.array([ea @ VEC_IDENTITY for ea in eas]).T        # E_b|I>
    m = heads @ VEC_IDENTITY
    kappa = heads @ pi @ cols
    form = 0.5 * (kappa + kappa.T) - np.outer(m, m)
    return np.array([[correlators._real(complex(x), scale=4.0) for x in row]
                     for row in form])


def neff(gate: Gate, chain: ChainSpec, direction) -> float:
    """Effective-size coefficient (of N) for the additive observable sum n.sigma."""
    ts = build_transfer(gate, chain)
    # The coefficient is a variance prefactor; clip the rounding dust.
    return max(_neff_value(ts, spectral(ts.e), direction), 0.0)


def neff_optimize(gate: Gate, chain: ChainSpec) -> MacroReport:
    """Maximize the effective-size coefficient over unit Bloch directions.

    The coefficient is a quadratic form n^T M n in the Bloch vector, built
    from the three Pauli dressings (_neff_form); its top eigenpair is the
    maximum and the best direction (unit norm, sign fixed so the largest
    component is positive).  The coefficient is evaluated again at that
    direction from one dressing of n.sigma, and a mismatch with the
    eigenvalue raises instead of returning.  A form whose top eigenvalue is
    rounding noise (at most _FORM_NOISE eps max(1, max|M|)) has no best
    direction; z is reported with coefficient 0, as for a non-degenerate
    unit eigenvalue.
    """
    ts = build_transfer(gate, chain)
    spec = spectral(ts.e)
    z_axis = np.array([0.0, 0.0, 1.0])
    if spec.unit_dim == 1:
        return MacroReport(spec.unit_dim, 0.0, z_axis)

    form = _neff_form(ts, spec)
    evals, evecs = np.linalg.eigh(form)
    top = float(evals[-1])
    witness = _structural_witness(ts.kraus, spec.unit_dim, _STRUCTURAL_TOL)[0]
    if top <= _FORM_NOISE * _EPS * max(1.0, float(np.max(np.abs(form)))):
        return MacroReport(spec.unit_dim, 0.0, z_axis, witness)
    direction = evecs[:, -1]
    # eigh's vectors are unit only to an ulp; renormalized, a direction on an
    # axis has that component exactly +-1 (1 - 1 ulp reads as 1.5e-8 rad
    # through acos).
    direction = (direction * np.sign(direction[np.argmax(np.abs(direction))])
                 / np.linalg.norm(direction))
    achieved = _neff_value(ts, spec, direction)
    if abs(achieved - top) > 1e-10 * max(1.0, abs(top)):
        raise ToleranceError(
            f"effective size is not quadratic in the direction: neff(n*) = "
            f"{achieved!r} against the top eigenvalue {top!r}")
    # The coefficient is a variance prefactor; clip the rounding dust.
    return MacroReport(unit_dimension=spec.unit_dim, neff_coeff=max(top, 0.0),
                       best_direction=direction, witness=witness)


def _eigvecs_2x2(m: np.ndarray) -> list[np.ndarray] | None:
    """Unit eigenvectors of a 2x2 matrix; None means every vector qualifies
    (m is a multiple of the identity to 1e-7 relative)."""
    if np.linalg.norm(m - 0.5 * np.trace(m) * np.eye(2), 2) <= 1e-7 * dm.max_abs(m):
        return None
    return list(np.linalg.eig(m)[1].T)


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    phase = v[idx] / abs(v[idx])
    out = v / phase
    return out / np.linalg.norm(out)


def _bloch_of_state(v: np.ndarray) -> np.ndarray:
    return np.array([np.real(v.conj() @ p @ v) for p in (PAULI_X, PAULI_Y, PAULI_Z)])


def _structural_witness(kraus: KrausPair, unit_dim: int, tol: float
                        ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(witness state, its Bloch vector) from a common eigenvector of the
    Kraus pair whose eigenvalues exhaust the weight (|mu0|^2 + |mu1|^2 = 1),
    or (None, None) when there is none; raises when that disagrees with the
    unit-eigenvalue degeneracy ``unit_dim``."""
    v0, v1 = kraus.v0, kraus.v1
    candidates = _eigvecs_2x2(v0)
    if candidates is None:
        candidates = _eigvecs_2x2(v1)
    if candidates is None:
        candidates = [np.array([1.0, 0.0], dtype=np.complex128)]

    hits: list[np.ndarray] = []
    for cand in candidates:
        cand = cand / np.linalg.norm(cand)
        mu0 = complex(cand.conj() @ v0 @ cand)
        mu1 = complex(cand.conj() @ v1 @ cand)
        if (np.linalg.norm(v0 @ cand - mu0 * cand) <= tol
                and np.linalg.norm(v1 @ cand - mu1 * cand) <= tol
                and abs(abs(mu0) ** 2 + abs(mu1) ** 2 - 1.0) <= tol):
            hits.append(cand)

    structural = bool(hits)
    if structural != (unit_dim >= 2):
        raise ToleranceError(
            f"structural test ({structural}) disagrees with unit-eigenvalue "
            f"degeneracy ({unit_dim}); tolerance pathology at tol={tol:g}")
    if not hits:
        return None, None
    # The channel-invariant pure state is the conjugate of the common
    # eigenvector; pick the lexicographically largest Bloch vector for
    # reproducibility.
    states = [_canonical_phase(np.conj(c)) for c in hits]
    blochs = [_bloch_of_state(s) for s in states]
    best = max(range(len(states)), key=lambda i: tuple(np.round(blochs[i], 12)))
    return states[best], blochs[best]


def classify_macroscopic(gate: Gate, tol: float = _STRUCTURAL_TOL) -> MacroClassification:
    """Structural test for macroscopicity: a common eigenvector of the Kraus
    pair whose eigenvalues exhaust the weight (|mu0|^2 + |mu1|^2 = 1).

    Cross-checked against the spectral criterion (degenerate unit eigenvalue
    of E, counted at the same ``tol``); a disagreement raises instead of
    returning a silent answer.
    """
    ts = build_transfer(gate, ChainSpec(2))
    spec = spectral(ts.e, tol=tol)
    witness, witness_bloch = _structural_witness(ts.kraus, spec.unit_dim, tol)
    return MacroClassification(is_macroscopic=witness is not None, witness=witness,
                               witness_bloch=witness_bloch,
                               unit_dimension=spec.unit_dim, spectrum=spec)


def variance_sweep(gate: Gate, chain_amplitudes: tuple[complex, complex],
                   obs: LocalObservable, n_list) -> list[dict]:
    """Exact collective variance over a list of chain lengths, with the
    empirical log-log slope between consecutive entries."""
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InputError("N list must be strictly ascending")
    rows: list[dict] = []
    if not n_list:
        return rows
    # The correlators take N as an argument and read only E, <v| and the
    # Kraus pair, so one transfer set serves every chain length.
    ts = build_transfer(gate, ChainSpec(n_list[0], *chain_amplitudes))
    prev = None
    for n in n_list:
        var = correlators.additive_variance_exact(ts, obs, n).total
        slope = None
        if prev is not None and prev[1] > 0 and var > 0:
            slope = (np.log(var) - np.log(prev[1])) / (np.log(n) - np.log(prev[0]))
        rows.append({"n": n, "variance": var, "slope": slope})
        prev = (n, var)
    return rows
