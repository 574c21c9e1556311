"""Brute-force state-vector simulation of the sequential sweep.

Ground truth for the transfer-matrix formulas at small N.  Site 1 is the
most significant bit of the amplitude index; the sweep applies the gate to
the ordered pairs (1,2), (2,3), ..., (N-1,N) exactly once each.  A state
keeps a table of the rows A_m|psi>, m = 1..N, for the last observable asked
for, and every expectation reads it: (N+1)·2^N·16 B with the state, 18 MB at
the N = 16 cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .gates import Gate, single_gate
from .transfer import ChainSpec, LocalObservable

DEFAULT_CAP = 16


@dataclass(frozen=True)
class StateVector:
    n: int
    amplitudes: np.ndarray
    _table: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)   # the caller's stays writable
        if amps.shape != (2 ** self.n,):
            raise InputError(f"expected {2 ** self.n} amplitudes, got {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= 1e-12:
            raise InputError(f"state not normalized: sum |amp|^2 = {norm}")
        amps.setflags(write=False)   # so the site table never goes stale
        object.__setattr__(self, "amplitudes", amps)

    def _site_table(self, obs: LocalObservable) -> np.ndarray:
        """The N x 2^N site table A_m|psi>, m = 1..N, built on first use; one
        entry: only the last observable's table is kept."""
        key = obs.matrix.tobytes()
        if self._table[0] != key:
            table = np.empty((self.n, 2 ** self.n), dtype=np.complex128)
            for m in range(1, self.n + 1):
                table[m - 1] = _apply_local(self.amplitudes, self.n, obs.matrix, m)
            object.__setattr__(self, "_table", (key, table))
        return self._table[1]


def _check_site(n: int, m: int) -> None:
    if not 1 <= m <= n:
        raise InputError(f"site index {m} outside 1..{n}")


def initial_state(chain: ChainSpec) -> StateVector:
    amps = np.zeros(2 ** chain.n, dtype=np.complex128)
    amps[0] = chain.c0
    amps[1 << (chain.n - 1)] = chain.c1  # site 1 = most significant bit
    return StateVector(chain.n, amps)


def sweep(gate: Gate, chain: ChainSpec, upto: int | None = None) -> StateVector:
    """One left-to-right sweep of the gate over the nearest-neighbor pairs
    (1,2), (2,3), ..., (N-1,N), in that order.

    ``upto`` truncates the sweep after that many bond gates (the prefix
    state); default applies all N-1.  The bonds act on one amplitude array,
    and only the final state is built and checked.  N is at most DEFAULT_CAP.
    """
    if chain.n > DEFAULT_CAP:
        mem = chain.n * np.log10(2) - np.log10(62500)   # log10 of 2^N x 16 B in MB
        raise InputError(
            f"N = {chain.n} exceeds the state-vector cap {DEFAULT_CAP} "
            f"(would need ~{10 ** (mem % 1):.1f}e{mem // 1:.0f} MB of amplitudes)")
    last = chain.n - 1 if upto is None else upto
    if not 0 <= last <= chain.n - 1:
        raise InputError(f"prefix length {last} outside 0..{chain.n - 1}")
    amps, u = initial_state(chain).amplitudes, single_gate(gate).matrix
    for m in range(1, last + 1):
        amps = _apply_local(amps, chain.n, u, m)
    return StateVector(chain.n, amps)


def _apply_local(amps: np.ndarray, n: int, op: np.ndarray, m: int) -> np.ndarray:
    """A 2x2 ``op`` on site m, or a 4x4 one on sites (m, m+1), as one einsum."""
    psi = amps.reshape(2 ** (m - 1), len(op), 2 ** (n - m + 1) // len(op))
    return np.einsum("ij,ajb->aib", op, psi).reshape(-1)


def expect_local(state: StateVector, obs: LocalObservable, m: int) -> float:
    _check_site(state.n, m)
    return float(np.vdot(state.amplitudes, state._site_table(obs)[m - 1]).real)


def expect_pair(state: StateVector, obs: LocalObservable, m: int, n: int) -> float:
    """<A_m A_n> as <A_m psi|A_n psi>: A is Hermitian and the sites differ."""
    _check_site(state.n, m)
    _check_site(state.n, n)
    if m == n:
        raise InputError("expect_pair needs two distinct sites")
    rows = state._site_table(obs)
    return float(np.vdot(rows[m - 1], rows[n - 1]).real)


def collective_mean(state: StateVector, obs: LocalObservable) -> float:
    acc = state._site_table(obs).sum(axis=0)
    return complex(state.amplitudes.conj() @ acc).real


def collective_variance(state: StateVector, obs: LocalObservable) -> float:
    """Variance of the additive observable sum_m A_m over all sites."""
    acc = state._site_table(obs).sum(axis=0)
    mean = complex(state.amplitudes.conj() @ acc).real
    second = float(np.real(acc.conj() @ acc))
    return second - mean ** 2


def reduced_density(state: StateVector, m: int) -> np.ndarray:
    """Exact single-site reduced density matrix."""
    _check_site(state.n, m)
    left = 2 ** (m - 1)
    right = 2 ** (state.n - m)
    psi = state.amplitudes.reshape(left, 2, right)
    return np.einsum("aib,ajb->ij", psi, psi.conj())
