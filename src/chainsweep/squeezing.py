"""Spin squeezing generated by the sequential two-axis-twisting gate.

Collective operators use the plain Pauli-sum normalization A_mu = sum sigma_mu
throughout: the mean and variance closed forms and the squeezing parameter
xi^2 = N (Delta A_theta)^2 / <A_z>^2 all cohere in these units, and xi^2 is
invariant under the uniform J = A/2 rescaling.  In these axes the separable
bound of the entanglement-depth plot is the parabola v = m^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import correlators
from .errors import InputError, ToleranceError
from .gates import squeezing_gate
from .transfer import ChainSpec, LocalObservable, SIGMA_Z, build_transfer, chain_length

THETA_DEGENERATE_SPAN = 1e-9


@lru_cache(maxsize=1)
def _transfer_for(chi_t: float):
    # The correlators take N as an argument, so any chain length serves.
    # One entry: a series over N at one chi_t, and the three builds inside
    # xi_squared, share one read-only transfer set.
    return build_transfer(squeezing_gate(chi_t), ChainSpec(2))


def mean_z_asymptotic_coeff(chi_t: float) -> float:
    """<A_z>/N in the bulk: (1 - 3 sin^2) / (1 + sin^2)."""
    s = np.sin(chi_t) ** 2
    return (1.0 - 3.0 * s) / (1.0 + s)


def variance_asymptotic_coeff(chi_t: float, theta: float) -> float:
    """Linear coefficient of the transverse variance (Delta A_theta)^2."""
    return _linear_coeff(_transfer_for(chi_t), theta)


def _linear_coeff(ts, theta):
    return correlators.asymptotic_variance(ts, _transverse_obs(theta)).linear_coeff


def _transverse_obs(theta) -> LocalObservable:
    """A_theta = cos t sigma_x + sin t sigma_y, a stack for an array theta;
    a scalar theta is built and validated once (_scalar_transverse_obs)."""
    if np.ndim(theta) == 0:
        return _scalar_transverse_obs(float(theta))
    theta = np.asarray(theta, dtype=float)
    with np.errstate(invalid="ignore"):   # from_bloch refuses a non-finite theta
        bloch = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1)
    return LocalObservable.from_bloch(bloch)


@lru_cache(maxsize=8)
def _scalar_transverse_obs(theta: float) -> LocalObservable:
    # -0.0 == 0.0 shares an entry: both give the same matrix bytes.  Building
    # and validating A_theta (about 40 us) costs more per N than the
    # memoized variance walk of a series does.
    with np.errstate(invalid="ignore"):   # from_bloch refuses a non-finite theta
        return LocalObservable.from_bloch([np.cos(theta), np.sin(theta), 0.0])


def mean_z(chi_t: float, n_sites: int) -> float:
    """Collective <A_z> after the sweep from |0...0>; its large-N form is
    N mean_z_asymptotic_coeff(chi_t)."""
    return correlators.collective_mean(_transfer_for(chi_t), SIGMA_Z, chain_length(n_sites, 2))


def transverse_variance(chi_t: float, theta: float, n_sites: int) -> float:
    """(Delta A_theta)^2 for A_theta = sum (cos t sigma_x + sin t sigma_y);
    an array theta gives an array.  Its large-N form is
    N variance_asymptotic_coeff(chi_t, theta)."""
    return correlators.additive_variance_exact(
        _transfer_for(chi_t), _transverse_obs(theta), n_sites).total


def _theta_optimum(ts) -> tuple[float, float, bool]:
    """(theta*, l(theta*), degenerate) for the linear variance coefficient of
    the squeezing transfer set ``ts``, or arrays of them for a stacked set.

    On the unit sphere l(n) = n^T L n (A^2 = I for A = n . sigma), so along
    the transverse circle l(theta) = a + b cos 2theta + c sin 2theta.  One
    evaluation at the probes theta = 0, pi/4, pi/2, stacked on a leading axis
    (each value bitwise its own call), fixes (a, b, c); the minimum sits at
    theta* = atan2(-c, -b)/2 with value a - sqrt(b^2 + c^2) (Kitagawa & Ueda,
    PRA 47, 5138).  The coefficient is evaluated again at theta*, and a
    mismatch with the predicted minimum at any element raises instead of
    returning.  Both evaluations read ``ts.spectrum`` of the whole stack.
    """
    probes = np.array([0.0, np.pi / 4, np.pi / 2]).reshape((3,) + (1,) * (ts.e.ndim - 2))
    l0, l1, l2 = _linear_coeff(ts, probes)
    a = 0.5 * (l0 + l2)
    b = 0.5 * (l0 - l2)
    c = l1 - a
    amplitude = np.hypot(b, c)
    theta = 0.5 * np.arctan2(-c, -b) % np.pi
    value = _linear_coeff(ts, theta)
    predicted = a - amplitude
    miss = np.abs(value - predicted) > 1e-10 * np.maximum(1.0, np.abs(predicted))
    if miss.any():
        at = np.argmax(miss)
        raise ToleranceError(
            f"variance coefficient is not quadratic in theta: l(theta*) = "
            f"{np.ravel(value)[at]:.17g} against the predicted minimum "
            f"{np.ravel(predicted)[at]:.17g}")
    return theta, value, 2.0 * amplitude < THETA_DEGENERATE_SPAN


def optimal_theta(chi_t: float) -> tuple[float, bool]:
    """Minimize the asymptotic transverse-variance coefficient over theta.

    Returns (theta, degenerate); a flat landscape (chi_t -> 0) is flagged
    degenerate and any angle qualifies.
    """
    theta, _, degenerate = _theta_optimum(_transfer_for(chi_t))
    return float(theta), bool(degenerate)


def xi_squared(chi_t: float, n_sites: int | None = None) -> float:
    """Squeezing parameter N (Delta A_theta*)^2 / <A_z>^2 at the optimal
    transverse angle over ``n_sites`` sites, or its N -> infinity limit
    l(theta*) / m^2 for None; < 1 witnesses entanglement."""
    if n_sites is not None:
        n_sites = chain_length(n_sites, 2)
    theta, var_coeff, _ = _theta_optimum(_transfer_for(chi_t))
    limit = n_sites is None
    mean = mean_z_asymptotic_coeff(chi_t) if limit else mean_z(chi_t, n_sites)
    if abs(mean) < 1e-9 * (1 if limit else n_sites):
        raise InputError("squeezing parameter undefined: <A_z> vanishes")
    var = var_coeff if limit else n_sites * transverse_variance(chi_t, theta, n_sites)
    return var / mean ** 2


# ---------------------------------------------------------------------------
# Entanglement-depth bounds (separable and pairwise ensembles)
# ---------------------------------------------------------------------------

@dataclass
class BoundCurve:
    """Minimum normalized transverse variance F_j(m) at fixed normalized
    mean spin m, for ensembles of spin-j blocks, in the (m = <A_z>/N,
    v = (Delta A)^2/N) axes."""

    j: float
    samples: list[tuple[float, float]]


def _pairwise_bound(m: float) -> float:
    """Spin-1 bound F_1(m) = 1 - sqrt(1 - m^2) (Sorensen & Molmer, PRL 86,
    4431); convex on [0, 1], so it is its own lower envelope."""
    return float(1.0 - np.sqrt(1.0 - m * m))


def sm_bound(j: float, m_grid) -> BoundCurve:
    """Minimum transverse variance at fixed mean spin for spin-j ensembles.

    j = 1/2 (separable): the Bloch-sphere minimum v = m^2.  j = 1 (pairwise
    entangled): the closed form 1 - sqrt(1 - m^2).
    """
    m_grid = sorted(float(m) for m in m_grid)
    if any(not 0.0 <= m <= 1.0 for m in m_grid):
        raise InputError("m grid must lie in [0, 1]")
    if abs(j - 0.5) < 1e-12:
        return BoundCurve(j=0.5, samples=[(m, m * m) for m in m_grid])
    if not abs(j - 1.0) <= 1e-12:   # NaN fails too
        raise InputError("only j = 1/2 and j = 1 are supported")
    return BoundCurve(j=1.0, samples=[(m, _pairwise_bound(m)) for m in m_grid])


def fig4_curve(chi_t_grid, theta: float | None = None) -> list[dict]:
    """Large-N squeezing trajectory (m, v) per chi_t with entanglement-depth
    flags from the separable (v = m^2) and pairwise bounds.

    ``theta`` fixes the transverse direction; default minimizes it per point.
    The whole grid is one stacked gate, transfer set and spectrum, and each
    variance evaluation covers every point at once.
    """
    grid = [float(c) for c in chi_t_grid]
    if any(not 0.0 < c < np.pi / 2 for c in grid):
        raise InputError("chi_t grid must lie in (0, pi/2)")
    if not grid:
        return []
    ts = build_transfer(squeezing_gate(np.asarray(grid)), ChainSpec(2))
    v_all = _theta_optimum(ts)[1] if theta is None else _linear_coeff(ts, theta)
    rows = []
    for chi_t, v in zip(grid, v_all.tolist()):
        m = mean_z_asymptotic_coeff(chi_t)
        f_half = m * m
        f_one = _pairwise_bound(abs(m)) if abs(m) <= 1.0 else None
        rows.append({"chi_t": chi_t, "m": m, "v": v, "f_half": f_half, "f_one": f_one,
                     "below_separable": bool(v < f_half - 1e-12),
                     "below_pairwise": bool(f_one is not None and v < f_one - 1e-12)})
    return rows
