"""Effective-size analysis: when does the sweep build macroscopic superpositions.

The dichotomy is spectral: a non-degenerate unit eigenvalue of the transfer
matrix kills the N^2 variance term, a degenerate one allows it.  Its
structural form, a common eigenvector of the Kraus pair carrying all the
weight, is checked as a certificate on the witness read off the unit
projector, so one singular value decides the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import correlators
from .errors import InputError, ToleranceError
from .gates import Gate, PAULI_X, PAULI_Y, PAULI_Z, single_gate
from .transfer import (ChainSpec, KrausPair, LocalObservable, SpectralData,
                       TransferSet, UNIT_EIG_TOL, VEC_IDENTITY, build_transfer,
                       spectral)

# Top eigenvalues of the effective-size form at or below this many eps times
# max(1, max|M|) are rounding noise: 8e-50 to 2.2e-16 on controlled
# rotations within 2e-5 of pi, where the threshold is about 5.7e-14,
# against >= 2e-3 on 60 Weyl-degenerate and macroscopic-family gates.
_FORM_NOISE = 256.0

_EPS = float(np.finfo(float).eps)

# Rows (gate, N) that variance_sweep walks and holds at once: a stack goes in
# blocks of at most max(1, ROWS // len(n_list)) gates, so one gate, or a long
# N list, holds the rows of a one-gate walk.
ROWS = 4096


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


def _neff_value(ts: TransferSet, direction) -> float:
    """Coefficient of N^2 in the variance of sum n.sigma, kappa - mean^2 from
    the unit-space rows of one dressing (correlators._unit_head); 0 for a
    non-degenerate unit eigenvalue."""
    obs = LocalObservable.from_bloch(direction)
    if ts.spectrum.unit_dim == 1:
        return 0.0
    ea = ts.dressed(obs.matrix)
    _, head, mean = correlators._unit_head(ts, ea)
    kappa = head @ ts.spectrum.projector @ ea @ VEC_IDENTITY
    return correlators._real((kappa - mean ** 2)[0], scale=4.0)


def _neff_form(ts: TransferSet) -> np.ndarray:
    """The symmetric 3x3 M with n^T M n = _neff_value(n): E_A is linear in A,
    so M = sym(<v|P E_a P E_b|I>) - m m^T over the Pauli dressings E_a,
    dressed as one stack, m_a = <v|P E_a|I>."""
    eas = ts.dressed(np.stack((PAULI_X, PAULI_Y, PAULI_Z)))
    _, heads, m = correlators._unit_head(ts, eas)               # <v|P E_a, m_a
    kappa = heads[:, 0] @ ts.spectrum.projector @ (eas @ VEC_IDENTITY).T
    form = 0.5 * (kappa + kappa.T) - np.outer(m, m)
    return correlators._real(form, scale=4.0)


def neff(gate: Gate, chain: ChainSpec, direction) -> float:
    """Effective-size coefficient (of N) for the additive observable sum n.sigma."""
    ts = build_transfer(single_gate(gate), chain)
    # The coefficient is a variance prefactor; clip the rounding dust.
    return max(_neff_value(ts, direction), 0.0)


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
    ts = build_transfer(single_gate(gate), chain)
    spec = ts.spectrum
    z_axis = np.array([0.0, 0.0, 1.0])
    if spec.unit_dim == 1:
        return MacroReport(spec.unit_dim, 0.0, z_axis)

    form = _neff_form(ts)
    evals, evecs = np.linalg.eigh(form)
    top = float(evals[-1])
    witness = _witness(ts.kraus, spec)[0]
    if top <= _FORM_NOISE * _EPS * max(1.0, float(np.max(np.abs(form)))):
        return MacroReport(spec.unit_dim, 0.0, z_axis, witness)
    direction = evecs[:, -1]
    # eigh's vectors are unit only to an ulp; renormalized, a direction on an
    # axis has that component exactly +-1 (1 - 1 ulp reads as 1.5e-8 rad
    # through acos).
    direction = (direction * np.sign(direction[np.argmax(np.abs(direction))])
                 / np.linalg.norm(direction))
    achieved = _neff_value(ts, direction)
    if abs(achieved - top) > 1e-10 * max(1.0, abs(top)):
        raise ToleranceError(
            f"effective size is not quadratic in the direction: neff(n*) = "
            f"{achieved!r} against the top eigenvalue {top!r}")
    # The coefficient is a variance prefactor; clip the rounding dust.
    return MacroReport(unit_dimension=spec.unit_dim, neff_coeff=max(top, 0.0),
                       best_direction=direction, witness=witness)


def _witness(kraus: KrausPair, spec: SpectralData):
    """(witness state, its Bloch vector n) read off the unit projector, or
    (None, None) for unit_dim 1.  A unital channel fixes the commutant of its
    Kraus operators (Wolf 2012, ch. 6): n spans the Bloch block of P (z when
    E = I), sign lexicographic.  Certificate: c = conj(state) has V_i c =
    mu_i c with sum |mu_i|^2 = 1 to a residual r ~ sqrt(s2) and deficit
    d ~ s2, s2 <= spec.tol the singular value of E - I that set unit_dim;
    r^2 + d above 2 spec.tol + 8 eps (rounding: <= 3 eps, exact gates) raises."""
    if spec.unit_dim == 1:
        return None, None
    bloch = np.array([0.0, 0.0, 1.0])
    if spec.unit_dim < 4:
        paulis = np.array([PAULI_X, PAULI_Y, PAULI_Z]).reshape(3, 4)  # rows vec(sigma_a)
        q = 0.5 * paulis.conj() @ spec.projector @ paulis.T          # Bloch block of P
        bloch = np.linalg.svd(q.real)[0][:, 0]
        if tuple(np.round(-bloch, 12)) > tuple(np.round(bloch, 12)):
            bloch = -bloch
    x, y, z = bloch
    state = np.array([1.0 + z, x + 1j * y] if z >= 0 else [x - 1j * y, 1.0 - z])
    state /= np.linalg.norm(state)

    v, c = np.stack((kraus.v0, kraus.v1)), state.conj()
    mu = c.conj() @ v @ c
    residual = float(np.max(np.linalg.norm(v @ c - mu[:, None] * c, axis=1)))
    defect = residual ** 2 + abs(float(np.sum(np.abs(mu) ** 2)) - 1.0)
    if defect > 2.0 * spec.tol + 8.0 * _EPS:
        raise ToleranceError(f"unit space of dimension {spec.unit_dim} holds no fixed "
                             f"pure state: r^2 + d = {defect:.3e} at tol={spec.tol:g}")
    return state, bloch


def classify_macroscopic(gate: Gate, tol: float = UNIT_EIG_TOL) -> MacroClassification:
    """Macroscopic iff the unit eigenvalue of E, counted at ``tol``, is
    degenerate; the witness is its fixed pure state, certified as a common
    Kraus eigenvector carrying all the weight (a failed certificate raises)."""
    ts = build_transfer(single_gate(gate), ChainSpec(2))
    spec = spectral(ts.e, tol=tol)
    witness, witness_bloch = _witness(ts.kraus, spec)
    return MacroClassification(is_macroscopic=witness is not None, witness=witness,
                               witness_bloch=witness_bloch,
                               unit_dimension=spec.unit_dim, spectrum=spec)


def variance_sweep(gate: Gate, chain_amplitudes: tuple[complex, complex],
                   obs: LocalObservable, n_list):
    """Exact collective variance over a list of chain lengths, with the
    empirical log-log slope between consecutive entries: one gate's list of
    rows, or for a stack with one batch axis an iterator of them, in order.

    A stack walks in blocks (_sweeps) as the iterator is consumed, so only
    one block's rows are held.  Every variance and slope is bitwise its
    one-gate call, each variance that of additive_variance_exact at its N,
    and the first (gate, N) over its error bound raises.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InputError("N list must be strictly ascending")
    if gate.matrix.ndim > 3:
        raise InputError(f"expected one gate or a stack with one batch axis, got "
                         f"a stack of shape {gate.matrix.shape[:-2]}")
    if not n_list:
        return [] if gate.matrix.ndim == 2 else ([] for _ in gate.matrix)
    sweeps = _sweeps(gate, chain_amplitudes, obs, n_list)
    return sweeps if gate.matrix.ndim == 3 else next(sweeps)


def _sweeps(gate: Gate, chain_amplitudes, obs: LocalObservable, n_list: list):
    """The row lists of variance_sweep, gate by gate, walked as (gates, 1)
    against the N list in blocks of max(1, ROWS // len(n_list)) gates, each
    one transfer set, spectrum, 12x12 lift and batched walk."""
    stack = gate.matrix.reshape(-1, 1, 4, 4)   # (gates, 1) against the N list
    step = max(1, ROWS // len(n_list))
    for i in range(0, len(stack), step):
        yield from _block(Gate(stack[i:i + step], gate.family, tol=gate.tol),
                          chain_amplitudes, obs, n_list)


def _block(gate: Gate, chain_amplitudes, obs: LocalObservable, n_list: list) -> list:
    """The row lists of a (gates, 1) stack from one batched walk; only the
    rows outlive the call, so a block's arrays are freed before the next."""
    # The correlators take N as an argument and read only E, <v| and the
    # Kraus pair, so one transfer set serves every chain length.
    ts = build_transfer(gate, ChainSpec(n_list[0], *chain_amplitudes))
    variances, _ = correlators._variance(ts, obs, np.array(n_list))
    return [_with_slopes(n_list, row) for row in variances.tolist()]


def _with_slopes(n_list: list, variances: list) -> list[dict]:
    """One gate's rows, each slope log-log from the entry before it, where
    both variances are positive."""
    rows: list[dict] = []
    prev = None
    for n, var in zip(n_list, variances):
        slope = None
        if prev is not None and prev[1] > 0 and var > 0:
            slope = (np.log(var) - np.log(prev[1])) / (np.log(n) - np.log(prev[0]))
        rows.append({"n": n, "variance": var, "slope": slope})
        prev = (n, var)
    return rows
