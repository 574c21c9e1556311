"""Exact finite-N and asymptotic expectation values along the chain.

Single-site and pair correlators contract the rank-1 boundary |I><v|
through its row vector <v| and powers of the 4x4 transfer matrix E: one entry
from O(log N) repeated squaring, or the whole table of a chain from one
O(N + P) sweep of sequential products (site_correlations).  A collective
sum is a finite-automaton MPO: sum_m A_m has bond dimension 2 and its square
bond dimension 3, so the mean and the variance at any N come from one power
of an 8x8 or 12x12 block upper-triangular lifted transfer matrix, O(log N)
matrix products.  Asymptotic coefficients use the spectral data of E.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import densemat as dm
from .errors import InputError, ToleranceError
from .transfer import LocalObservable, TransferSet, VEC_IDENTITY

IMAG_TOL = 1e-10

# A collective mean or variance whose estimated error exceeds this fraction
# of max(|value|, its product-state scale) raises instead of returning.
COLLECTIVE_REL_TOL = 1e-5

# Safety factor of the lifted-contraction error estimate.  Against 40-digit
# references (random, squeezing, controlled-rotation, macroscopic-family and
# Weyl-degenerate gates, N = 2 to 1e12) the unscaled estimate fell to 0.075x
# the deviation, on a macroscopic-family gate whose degenerate unit
# eigenvalue drifts; 32 leaves a margin of 2.4 there.
_ERR_SAFETY = 32.0

# Safety factor of the asymptotic-coefficient error estimate; see
# AsymptoticVariance.
_ASYM_SAFETY = 8.0

_EPS = float(np.finfo(float).eps)


def _real(value, scale: float = 1.0):
    """Drop a numerically-zero imaginary part, loudly if it is not."""
    residue = abs(value.imag)
    if np.count_nonzero(residue > IMAG_TOL * max(1.0, abs(scale))):
        raise ToleranceError(
            f"expected a real quantity, got imaginary residue {np.max(residue):.3e}")
    return dm.unbatch(value.real)


def _vec(obs: LocalObservable) -> np.ndarray:
    # vec(A) with the 2i+j index convention
    return obs.matrix.reshape(obs.matrix.shape[:-2] + (4,))


def _closing(ea: np.ndarray, obs: LocalObservable, last: bool) -> np.ndarray:
    """Column that closes a contraction at site n: E_A|I> for n < N, where
    the sites after n trace out to |I>, and vec A at the last site n = N."""
    return _vec(obs) if last else ea @ VEC_IDENTITY


def one_point(ts: TransferSet, obs: LocalObservable, m: int, n_sites: int) -> float:
    """<A_m> = <v|E^{m-1} E_A|I> for m < N and <v|E^{N-1}|vec A> at m = N,
    from one O(log N) matrix power."""
    if not 1 <= m <= n_sites:
        raise InputError(f"site {m} outside 1..{n_sites}")
    col = _closing(ts.dressed(obs.matrix), obs, m == n_sites)
    return _real(complex(ts.vrow @ dm.matpow(ts.e, m - 1) @ col))


def two_point(ts: TransferSet, obs: LocalObservable, m: int, n: int,
              n_sites: int) -> float:
    """<A_m A_n> = <v|E^{m-1} E_A E^{n-m-1} E_A|I> for m < n < N and
    <v|E^{m-1} E_A E^{N-m-1}|vec A> at n = N, from O(log N) matrix powers."""
    _check_pairs([(m, n)], n_sites)
    ea = ts.dressed(obs.matrix)
    head = ts.vrow @ dm.matpow(ts.e, m - 1) @ ea
    col = _closing(ea, obs, n == n_sites)
    return _real(complex(head @ dm.matpow(ts.e, n - m - 1) @ col))


def _check_pairs(pairs, n_sites: int) -> None:
    for m, n in pairs:
        if not 1 <= m <= n_sites or not 1 <= n <= n_sites:
            raise InputError(f"sites ({m},{n}) outside 1..{n_sites}")
        if m >= n:
            raise InputError(f"two-point sites need m < n, got ({m},{n})")


def _powers(m: np.ndarray, start: np.ndarray, count: int) -> np.ndarray:
    """Rows m^j start for j = 0..count-1, by sequential products."""
    out = np.empty((count, 4), dtype=np.complex128)
    if count:
        out[0] = start
    for j in range(1, count):
        out[j] = m @ out[j - 1]
    return out


def site_correlations(ts: TransferSet, obs: LocalObservable, n_sites: int,
                      pairs) -> tuple[list[float], list[float]]:
    """All N one-point values <A_m> and <A_m A_n> for each (m, n) in
    ``pairs``, in O(N + P) products of 4-vectors with 4x4 matrices.

    Prefix rows r_k = <v|E^k> (k < N) give <A_m> = r_{m-1}.close(m) and the
    heads r_{m-1} E_A; columns E^j close(n), built only up to the largest
    separation in ``pairs``, close each pair.  The values are those of
    one_point and two_point, to rounding: sequential products in place of
    repeated squaring.
    """
    if n_sites < 1:
        raise InputError(f"chain needs at least 1 site, got {n_sites}")
    pairs = list(pairs)
    _check_pairs(pairs, n_sites)
    ea = ts.dressed(obs.matrix)
    bulk, last = _closing(ea, obs, False), _closing(ea, obs, True)

    rows = _powers(ts.e.T, ts.vrow, n_sites)
    one_vals = np.empty(n_sites, dtype=np.complex128)
    one_vals[:-1] = rows[:-1] @ bulk
    one_vals[-1] = rows[-1] @ last
    one = _real(one_vals).tolist()
    if not pairs:
        return one, []

    ms, ns = np.array(pairs).T
    steps = ns - ms - 1
    at_end = ns == n_sites
    bulk_cols = _powers(ts.e, bulk, int(steps[~at_end].max(initial=-1)) + 1)
    last_cols = _powers(ts.e, last, int(steps[at_end].max(initial=-1)) + 1)
    cols = np.concatenate([bulk_cols, last_cols])
    heads = rows[:-1] @ ea
    two_vals = np.einsum("ij,ij->i", heads[ms - 1],
                         cols[np.where(at_end, len(bulk_cols) + steps, steps)])
    return one, _real(two_vals).tolist()


def _lifted_contraction(ts: TransferSet, ops: dict, n: int) -> tuple[complex, float]:
    """Chain sum of a finite-automaton MPO: <v, 0, ..., 0| T^{N-1} |b>.

    The MPO is block upper triangular with identities on its diagonal and
    the single-site operators ``ops[i, j]`` (i < j) above it (Crosswhite &
    Bacon, PRA 78, 012356 (2008)); sum_m A_m is {(0, 1): A}.  Dressing each
    entry gives the lifted transfer matrix T, with E on the diagonal blocks
    and E_{W_ij} above them, and site N closes with the column
    b_i = vec W_{i,k-1}.

    The value is divided by the state norm <v|E^{N-1}|I>, read off the same
    power: mathematically it is 1, and the division cancels the common drift
    that repeated squaring gives the unit eigenvalue (about N eps relative).
    Returns the value and its error estimate _ERR_SAFETY * N eps |row|.|b|,
    row = <v, 0, ...| T^{N-1} normalized.
    """
    k = 1 + max(j for _, j in ops)
    t = np.zeros((4 * k, 4 * k), dtype=np.complex128)
    b = np.zeros(4 * k, dtype=np.complex128)
    for i in range(k):
        t[4 * i:4 * i + 4, 4 * i:4 * i + 4] = ts.e
    for (i, j), op in ops.items():
        t[4 * i:4 * i + 4, 4 * j:4 * j + 4] = ts.dressed(op)
        if j == k - 1:
            b[4 * i:4 * i + 4] = op.reshape(-1)
    b[-4:] = VEC_IDENTITY
    row = ts.vrow @ dm.matpow(t, n - 1)[:4]
    row = row / complex(row[:4] @ VEC_IDENTITY)
    err = _ERR_SAFETY * n * _EPS * float(np.abs(row) @ np.abs(b))
    return complex(row @ b), err


def _check_estimate(what: str, value: float, err: float, floor: float) -> None:
    bound = COLLECTIVE_REL_TOL * max(abs(value), floor)
    if err > bound:
        raise ToleranceError(
            f"{what}: estimated error {err:.3e} exceeds {bound:.3e}; "
            f"the chain is too long for double precision")


def _mean(ts: TransferSet, a: np.ndarray, n: int) -> tuple[float, float]:
    """sum_m <A_m> and its error estimate from the 8x8 lifted power
    [[E, E_A], [0, E]] closed by (vec A, |I>) at site N."""
    total, err = _lifted_contraction(ts, {(0, 1): a}, n)
    return _real(total, scale=n), err


def collective_mean(ts: TransferSet, obs: LocalObservable, n_sites: int) -> float:
    """sum_m <A_m> from one power of the 8x8 lifted transfer matrix.

    Raises ToleranceError when the error estimate exceeds COLLECTIVE_REL_TOL
    of max(|mean|, N ||A||).
    """
    if n_sites < 1:
        raise InputError(f"chain needs at least 1 site, got {n_sites}")
    mean, err = _mean(ts, obs.matrix, n_sites)
    _check_estimate("collective mean", mean, err,
                    n_sites * np.linalg.norm(obs.matrix, 2))
    return mean


@dataclass
class VarianceBreakdown:
    """Exact variance of an additive observable; ``error_estimate`` is the
    estimated floating-point error of ``total`` (see _lifted_contraction)."""

    total: float
    error_estimate: float


@dataclass
class AsymptoticVariance:
    """Coefficients of the N^2 and N terms of an additive variance; floats
    for one transfer matrix, arrays of the batch shape for a stack.

    The remainder V(N) - q N^2 - l N is bounded for every gate: E is unital,
    so its unimodular eigenvalues are semisimple (Wolf 2012, Prop. 6.2) and
    a non-unit one adds a bounded oscillation, never an N lambda^N term.
    ``error_estimate`` bounds the rounding error of the coefficients:
    _ASYM_SAFETY eps ||S||_F ||E_A||_F^2, S the reduced resolvent, which
    grows like 1/gap as the second eigenvalue of E approaches 1.
    """

    quadratic_coeff: float
    linear_coeff: float
    error_estimate: float = 0.0


def additive_variance_exact(ts: TransferSet, obs: LocalObservable,
                            n_sites: int) -> VarianceBreakdown:
    """Variance of sum_m A_m over the full chain, all boundary terms included;
    A is Hermitian, as every LocalObservable is.

    Raises ToleranceError when the error estimate exceeds COLLECTIVE_REL_TOL
    of max(|variance|, N ||A - mu||^2), mu the chain average of A.
    """
    if n_sites < 2:
        raise InputError("chain needs at least 2 sites")
    total, err = _variance(ts, obs, n_sites)
    return VarianceBreakdown(total=total, error_estimate=err)


def _variance(ts: TransferSet, obs: LocalObservable, n: int) -> tuple[float, float]:
    """Variance and its error estimate from the mean-shifted 12x12 power.

    The second moment of sum_m A_m is the bond-dimension-3 MPO
    [[I, A, A^2], [0, I, 2A], [0, 0, I]].  A is first shifted by its chain
    average mu (from the 8x8 mean power): the variance is unchanged and the
    shifted sum has zero mean, so its second moment is the variance and no
    N^2-sized mean^2 is subtracted.
    """
    mean, _ = _mean(ts, obs.matrix, n)
    shifted = obs.matrix - (mean / n) * np.eye(2)
    second, err = _lifted_contraction(
        ts, {(0, 1): shifted, (0, 2): shifted @ shifted, (1, 2): 2.0 * shifted}, n)
    total = _real(second, scale=float(n) ** 2)
    _check_estimate("collective variance", total, err,
                    n * np.linalg.norm(shifted, 2) ** 2)
    return total, err


def _unit_moments(v_pi: np.ndarray, pi: np.ndarray,
                  ea: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(<v|P E_A|I>, <v|P E_A P E_A|I>) for the row v_pi = <v|P: the chain
    average of A and its unit-space second moment, whose difference
    kappa - mean^2 is the N^2 coefficient of the variance."""
    head = v_pi @ ea
    return head @ VEC_IDENTITY, head @ pi @ ea @ VEC_IDENTITY


def asymptotic_variance(ts: TransferSet, obs: LocalObservable) -> AsymptoticVariance:
    """Large-N coefficients of the additive variance, q N^2 + l N + O(1), of
    a LocalObservable, which is Hermitian by construction.

    q comes from unit-eigenspace projections only; l collects the single-site
    term, the decaying-mode geometric sums, the boundary-site pairs, and the
    mean-square correction.  For a zero-mean observable it reduces to
    1 + 2 sum_j (E_A)_{1j} (E_A)_{j1} / (1 - lambda_j).  Raises
    ToleranceError when ``error_estimate`` exceeds COLLECTIVE_REL_TOL of
    max(1, |l|), which happens only as the spectral gap closes.  P and S come
    from ``ts.spectrum``, computed once per transfer set, so the call itself
    makes no linear solve.  A stacked ``ts`` or ``obs`` gives stacked
    coefficients, bitwise those of one matrix: rows stay 1x4, so every
    product takes the BLAS path of the one-matrix call.
    """
    ea = ts.dressed(obs.matrix)
    ea2_i = (ts.dressed(obs.squared()) @ VEC_IDENTITY)[..., None]
    a = _vec(obs)[..., None]
    v = ts.vrow[None, :]
    pi, s_res = ts.spectrum.projector, ts.spectrum.resolvent

    v_pi = v @ pi
    mean_inf, kappa = _unit_moments(v_pi, pi, ea)
    quad = _real((kappa - mean_inf ** 2)[..., 0])

    s_inf = (v_pi @ ea2_i)[..., 0]
    cross = v_pi @ ea @ s_res @ ea @ VEC_IDENTITY
    cross = cross + v @ s_res @ ea @ pi @ ea @ VEC_IDENTITY
    boundary = (v_pi @ ea @ pi @ a)[..., 0]
    nu_inf = (v_pi @ a)[..., 0]
    c_mean = -mean_inf + v @ s_res @ ea @ VEC_IDENTITY + nu_inf
    lin = _real((s_inf - 3.0 * kappa + 2.0 * cross + 2.0 * boundary
                 - 2.0 * mean_inf * c_mean)[..., 0], scale=10.0)
    err = (_ASYM_SAFETY * _EPS * np.linalg.norm(s_res, axis=(-2, -1))
           * np.linalg.norm(ea, axis=(-2, -1)) ** 2)
    excess = np.max(err / (COLLECTIVE_REL_TOL * np.maximum(1.0, np.abs(lin))))
    if excess > 1.0:
        raise ToleranceError(
            f"asymptotic variance: estimated error exceeds its bound {excess:.3g}-fold; "
            f"the spectral gap of E is too small")
    return AsymptoticVariance(quadratic_coeff=quad, linear_coeff=lin,
                              error_estimate=dm.unbatch(err))
