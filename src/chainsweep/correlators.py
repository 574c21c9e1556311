"""Exact finite-N and asymptotic expectation values along the chain.

Every finite-N value is a boundary row walked, bit by ascending bit, through
the squaring ladder of one transfer matrix (densemat.walk).  Single-site and
pair correlators walk the row <v| of the rank-1 boundary |I><v| through the
4x4 transfer matrix E, one entry per call or a whole chain's rows doubled from
the same ladder (site_correlations), bitwise the same.  A collective sum is a
finite-automaton MPO: the square of sum_m A_m has bond dimension 3, so one
row <v, 0, 0| walked through a 12x12 block upper-triangular lifted transfer
matrix, O(log N) products, gives the mean and the second moment of the sum
of A - mu, mu the chain average of A; the mean adds N mu back and the
variance subtracts the square of the shifted mean.  Asymptotic coefficients
use the spectral data of E.

The collective mean and variance of an observable share one memo entry per
transfer set (TransferSet.memoized, at most MEMO_ENTRIES entries keyed by the
observable's matrix): the lifted walk (_lift), that is the 12x12 matrix's
closing columns and squaring ladder, shift mu, ||A|| and ||A - mu||^2, so a
series over N squares it once.  Every stored array is read-only and each
value is bitwise the cold call's.  The site correlators dress E_A per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import densemat as dm
from .errors import InputError, ToleranceError
from .transfer import LocalObservable, TransferSet, VEC_IDENTITY, chain_length

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
    # residue > IMAG_TOL max(1, |scale|), element-wise, with no ufunc on a scalar
    if np.count_nonzero((residue > IMAG_TOL) & (residue > IMAG_TOL * abs(scale))):
        raise ToleranceError(
            f"expected a real quantity, got imaginary residue {np.max(residue):.3e}")
    return dm.unbatch(value.real)


def _vec(obs: LocalObservable) -> np.ndarray:
    # vec(A) with the 2i+j index convention
    return obs.matrix.reshape(obs.matrix.shape[:-2] + (4,))


def _closed(ea: np.ndarray, obs: LocalObservable, ends: np.ndarray, sites, n_sites: int):
    """Walked rows ``ends`` (..., 1, 4) closed at ``sites``: by E_A|I> at a
    site n < N, where the sites after n trace out to |I>, by vec A at N."""
    cols = np.where(np.equal(sites, n_sites)[..., None], _vec(obs), ea @ VEC_IDENTITY)
    return _real((ends @ cols[..., None])[..., 0, 0])


def one_point(ts: TransferSet, obs: LocalObservable, m: int, n_sites: int) -> float:
    """<A_m> = <v|E^{m-1} E_A|I> for m < N and <v|E^{N-1}|vec A> at m = N,
    walking <v| through O(log N) squarings of E."""
    n_sites = chain_length(n_sites, 1)
    if not isinstance(m, (int, np.integer)):
        raise InputError(f"site must be an integer, got {m!r}")
    if not 1 <= m <= n_sites:
        raise InputError(f"site {m} outside 1..{n_sites}")
    return _closed(ts.dressed(obs.matrix), obs,
                   dm.walk(ts.vrow[None, :], m - 1, [ts.e]), m, n_sites)


def two_point(ts: TransferSet, obs: LocalObservable, m: int, n: int,
              n_sites: int) -> float:
    """<A_m A_n> = <v|E^{m-1} E_A E^{n-m-1} E_A|I> for m < n < N and
    <v|E^{m-1} E_A E^{N-m-1}|vec A> at n = N: <v| walks to the head
    <v|E^{m-1} E_A, and the head walks on by the separation n - m - 1."""
    n_sites = chain_length(n_sites, 1)
    _pair_sites([(m, n)], n_sites)
    ea = ts.dressed(obs.matrix)
    ladder = [ts.e]
    head = dm.walk(ts.vrow[None, :], m - 1, ladder) @ ea
    return _closed(ea, obs, dm.walk(head, n - m - 1, ladder), n, n_sites)


def _pair_sites(pairs, n_sites: int) -> np.ndarray:
    """``pairs`` as a (P, 2) integer array (one passed in is used as it is),
    checked at once; the first entry that is not two integer sites m < n in
    1..N raises InputError naming it."""
    try:
        sites = np.asarray(pairs) if len(pairs) else np.empty((0, 2), dtype=int)
    except ValueError:   # entries of different lengths
        sites = np.empty(0)
    if sites.shape != (len(pairs), 2) or sites.dtype.kind not in "iu":
        bad = next((p for p in pairs if not isinstance(p, (tuple, list, np.ndarray))
                    or len(p) != 2 or not all(isinstance(s, (int, np.integer)) for s in p)),
                   None)
        if bad is not None:
            raise InputError(f"a pair needs two integer sites, got {bad}")
        sites = np.array(pairs, dtype=object)   # ints past int64 or bools: refused below
    ms, ns = sites.T
    outside = (ms < 1) | (ms > n_sites) | (ns < 1) | (ns > n_sites)
    bad = outside | (ms >= ns)
    if bad.any():
        i = int(np.argmax(bad))
        m, n = sites[i].tolist()
        if outside[i]:
            raise InputError(f"sites ({m},{n}) outside 1..{n_sites}")
        raise InputError(f"two-point sites need m < n, got ({m},{n})")
    return sites


def site_correlations(ts: TransferSet, obs: LocalObservable, n_sites: int,
                      pairs) -> tuple[list[float], list[float]]:
    """All N one-point values <A_m> and <A_m A_n> for each (m, n) in
    ``pairs`` (a (P, 2) integer array, or pairs), each == its one_point and
    two_point call: the rows r_k = <v|E^k> (k < N) of one doubling table
    (densemat.walk_table) close at their site, <A_m> = r_{m-1} close(m), and
    each pair's head r_{m-1} E_A walks on by its own separation n - m - 1 to
    close(n).  The table has one chain's rows: a stacked ``ts`` or ``obs`` raises."""
    if ts.e.ndim > 2 or obs.matrix.ndim > 2:
        raise InputError("site_correlations takes one transfer matrix and one "
                         "observable, not a stack")
    n_sites = chain_length(n_sites, 1)
    ms, ns = _pair_sites(pairs, n_sites).T
    ea = ts.dressed(obs.matrix)
    ladder = [ts.e]
    rows = dm.walk_table(ts.vrow[None, :], n_sites, ladder)
    one = _closed(ea, obs, rows, np.arange(1, n_sites + 1), n_sites).tolist()
    ends = dm.walk(rows[ms - 1] @ ea, ns - ms - 1, ladder)
    return one, _closed(ea, obs, ends, ns, n_sites).tolist()


def _lift(ts: TransferSet, a: np.ndarray) -> tuple:
    """(closing columns, [T], mu, ||A||, ||A'||^2) of the MPO [[I, A', A'^2],
    [0, I, 2A'], [0, 0, I]] of A' = A - mu, read-only: independent of N, so a
    transfer set memoizes them and the squaring ladder [T] grows in place.

    The MPO is a finite automaton (Crosswhite & Bacon, PRA 78, 012356
    (2008)); dressing each entry gives T, with E on the diagonal blocks and
    E_{A'}, E_{A'^2}, E_{2A'} above them.  Site N closes automaton state 1
    by (vec A', |I>, 0) into the mean M1 of sum_m A'_m and state 2 by
    (vec A'^2, vec 2A', |I>) into its second moment M2.  The chain average
    mu = Re <v|P E_A|I> (P from ts.spectrum) is independent of N and keeps
    M1 bounded for unital E; any real shift leaves M2 - M1^2 exact.  A',
    A'^2 and 2A' are dressed as one stack on a leading axis, so a stacked E
    broadcasts with A; one SVD of the stack (A, A') gives the guard scales.
    """
    mu = _unit_head(ts, ts.dressed(a))[2][..., 0].real
    shifted = a - np.multiply.outer(mu, np.eye(2))
    ops = np.stack((shifted, shifted @ shifted, 2.0 * shifted))
    dressed = ts.dressed(ops)
    t = np.zeros(dressed.shape[1:-2] + (12, 12), dtype=np.complex128)
    cols = np.zeros(dressed.shape[1:-2] + (12, 2), dtype=np.complex128)
    for i in range(3):
        t[..., 4 * i:4 * i + 4, 4 * i:4 * i + 4] = ts.e
    t[..., :4, 4:8], t[..., :4, 8:], t[..., 4:8, 8:] = dressed
    cols[..., 4:, :] = np.kron(np.eye(2), VEC_IDENTITY[:, None])
    cols[..., :4, 0], cols[..., :4, 1], cols[..., 4:8, 1] = ops.reshape(ops.shape[:-2] + (4,))
    pair = np.empty((2,) + shifted.shape, dtype=np.complex128)   # A broadcast next to A'
    pair[0], pair[1] = a, shifted
    tops = np.linalg.svd(pair, compute_uv=False)[..., 0]
    tops[1] **= 2
    for x in (t, cols, mu, tops):
        x.setflags(write=False)
    return cols, [t], mu, *tops   # float64s for one matrix keep the guards cheap


def _moments(ts: TransferSet, obs: LocalObservable, n) -> tuple:
    """(M1, M2, their error estimates, mu, ||A||, ||A'||^2) of sum_m A'_m
    over N sites (_lift), from <v, 0, 0| T^{N-1} walked through the memoized
    squaring ladder [T, ...] (densemat.walk) and closed by both columns.

    The values are divided by the state norm <v|E^{N-1}|I>, read off the same
    row: mathematically it is 1, and the division cancels the common drift
    that repeated squaring gives the unit eigenvalue (about N eps relative).
    The estimate of column c is _ERR_SAFETY N eps |row|.|c|, row the
    normalized walked row.  An integer array ``n`` (T may carry batch axes
    too) gives arrays from one batched walk, each bitwise its scalar call:
    rows stay 1 x 12, so every product takes the BLAS path of the scalar call.
    """
    cols, ladder, mu, norm, floor = ts.memoized(obs.matrix, lambda a: _lift(ts, a))
    start = np.zeros((1, 12), dtype=np.complex128)
    start[0, :4] = ts.vrow
    row = dm.walk(start, n - 1, ladder)
    row = row / (row[..., :4] @ VEC_IDENTITY)[..., None]
    closed = (row @ cols)[..., 0, :]
    sums = (np.abs(row) @ np.abs(cols))[..., 0, :]
    scale = _ERR_SAFETY * n * _EPS
    return (closed[..., 0], closed[..., 1], scale * sums[..., 0], scale * sums[..., 1],
            mu, norm, floor)


def _check_estimate(what: str, value, err, floor,
                    cause: str = "the chain is too long for double precision") -> None:
    """Raise for the first element, in order, whose err exceeds its bound
    COLLECTIVE_REL_TOL max(|value|, floor), compared term by term."""
    over = (err > COLLECTIVE_REL_TOL * abs(value)) & (err > COLLECTIVE_REL_TOL * floor)
    if np.count_nonzero(over):
        i = np.argmax(np.ravel(over))
        err, bound = np.ravel(err), np.ravel(COLLECTIVE_REL_TOL * np.maximum(abs(value), floor))
        raise ToleranceError(f"{what}: estimated error {err[i]:.3e} exceeds {bound[i]:.3e}; "
                             f"{cause}")


def collective_mean(ts: TransferSet, obs: LocalObservable, n_sites: int) -> float:
    """sum_m <A_m> = N mu + M1, read off the walk of the variance (_moments),
    memoized per transfer set and observable.

    Raises ToleranceError when M1's error estimate exceeds COLLECTIVE_REL_TOL
    of max(|mean|, N ||A||).
    """
    n_sites = chain_length(n_sites, 1)
    m1, _, err1, _, mu, norm, _ = _moments(ts, obs, n_sites)
    mean = _real(n_sites * mu + m1, scale=n_sites)
    _check_estimate("collective mean", mean, err1, n_sites * norm)
    return mean


@dataclass
class VarianceBreakdown:
    """Exact variance of an additive observable; ``error_estimate`` is the
    estimated floating-point error of ``total`` (see _variance)."""

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
    total, err = _variance(ts, obs, chain_length(n_sites, 2))
    return VarianceBreakdown(total=total, error_estimate=err)


def _variance(ts: TransferSet, obs: LocalObservable, n) -> tuple:
    """Variance M2 - M1^2 and its error estimate (arrays for an array ``n``)
    from one walk (_moments).  M1 is bounded, so M1^2 stays small next to
    the variance; the estimate adds 2 |M1| times M1's to M2's, and the
    guard's floor is N ||A - mu||^2."""
    m1, m2, err1, err2, _, _, floor = _moments(ts, obs, n)
    total = _real(m2 - m1 * m1, scale=(1.0 * n) ** 2)
    err = err2 + 2.0 * np.abs(m1) * err1
    _check_estimate("collective variance", total, err, n * floor)
    return total, dm.unbatch(err)


def _unit_head(ts: TransferSet, ea: np.ndarray) -> tuple:
    """(<v|P, <v|P E_A, <v|P E_A|I>) for a (stacked) E_A, P from ts.spectrum:
    the unit-space rows of the chain average of A and its N^2 moment, every
    row 1x4 and associated left to right, so a stack is bitwise its elements."""
    v_pi = ts.vrow[None, :] @ ts.spectrum.projector
    head = v_pi @ ea
    return v_pi, head, head @ VEC_IDENTITY


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
    product takes the BLAS path of the one-matrix call.  <v|P, <v|P E_A and
    the mean come from _unit_head, and <v|P E_A P and <v|S E_A are formed
    once each; every row is shared and every chain associated left to right.
    Of E_{A^2} only the column E_{A^2}|I> is read, so only it is dressed
    (TransferSet.dressed_on_identity).
    """
    ea = ts.dressed(obs.matrix)
    ea2_i = ts.dressed_on_identity(obs.matrix @ obs.matrix)[..., None]
    a = _vec(obs)[..., None]
    pi, s_res = ts.spectrum.projector, ts.spectrum.resolvent

    v_pi, head, mean_inf = _unit_head(ts, ea)
    head_pi = head @ pi
    v_s_ea = ts.vrow[None, :] @ s_res @ ea
    kappa = head_pi @ ea @ VEC_IDENTITY
    quad = _real((kappa - mean_inf ** 2)[..., 0])

    s_inf = (v_pi @ ea2_i)[..., 0]
    cross = head @ s_res @ ea @ VEC_IDENTITY
    cross = cross + v_s_ea @ pi @ ea @ VEC_IDENTITY
    boundary = (head_pi @ a)[..., 0]
    nu_inf = (v_pi @ a)[..., 0]
    c_mean = -mean_inf + v_s_ea @ VEC_IDENTITY + nu_inf
    lin = _real((s_inf - 3.0 * kappa + 2.0 * cross + 2.0 * boundary
                 - 2.0 * mean_inf * c_mean)[..., 0], scale=10.0)
    err = (_ASYM_SAFETY * _EPS * np.linalg.norm(s_res, axis=(-2, -1))
           * np.linalg.norm(ea, axis=(-2, -1)) ** 2)
    _check_estimate("asymptotic variance", lin, err, 1.0,
                    "the spectral gap of E is too small")
    return AsymptoticVariance(quadratic_coeff=quad, linear_coeff=lin,
                              error_estimate=dm.unbatch(err))
