"""Reference values the benchmark checks chainsweep's outputs against.

Closed forms are written out here rather than imported from the package, so
a defect in the package cannot also move its reference.  Tolerances are the
ones tests/test_acceptance.py (or, where it has none for a quantity, the
unit tests) use for the same quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

TOL_ORACLE = 1e-8          # criterion 1: transfer formulas vs state vector
TOL_SQUARES = 1e-9         # criterion 5: CNOT on |+> gives N^2 (relative)
TOL_EIGENVALUES = 1e-9     # criterion 3: spectrum vs closed form
TOL_NEFF = 1e-8            # criterion 4: effective-size value
TOL_DIRECTION = 1e-4       # criterion 4: optimizer axis (radians)
TOL_SLOPE = 1e-4           # criterion 6: linear coefficients from exact values
TOL_MEAN_COEFF = 1e-12     # tests/test_squeezing.py: asymptotic mean closed form
TOL_VAR_COEFF = 1e-10      # tests/test_squeezing.py: variance bracket closed form
FLAG_MARGIN = 1e-12        # the strict margin squeezing.fig4_curve applies
DIGITS_CAP = 16.0


@dataclass
class Check:
    """One output compared with its reference.

    ``tol`` None records the deviation without gating on it.  ``metric``
    names the digits figure the deviation feeds.
    """

    name: str
    got: float
    ref: float
    tol: float | None
    relative: bool = False
    metric: str = "correct_digits"

    @property
    def passed(self) -> bool:
        if self.tol is None:
            return True
        if not (math.isfinite(self.got) and math.isfinite(self.ref)):
            return False
        scale = abs(self.ref) if self.relative else 1.0
        return abs(self.got - self.ref) <= self.tol * scale

    @property
    def digits(self) -> float:
        return digits(self.got, self.ref)


def digits(got: float, ref: float) -> float:
    """-log10 of the deviation relative to max(|ref|, 1), capped at 16."""
    if not (math.isfinite(got) and math.isfinite(ref)):
        return 0.0
    dev = abs(got - ref) / max(abs(ref), 1.0)
    return min(DIGITS_CAP, -math.log10(max(dev, 10.0 ** -DIGITS_CAP)))


def mean_coeff(chi_t: float) -> float:
    """Bulk <A_z>/N of the two-axis-twisting sweep: (1 - 3 s^2)/(1 + s^2)."""
    s2 = math.sin(chi_t) ** 2
    return (1.0 - 3.0 * s2) / (1.0 + s2)


def variance_coeff(chi_t: float) -> float:
    """Linear coefficient of (Delta A_theta)^2 at theta* = pi/4:
    1 - 2 sin(2 chi) cos(chi) / ((1 + s^2)(1 + s))."""
    s = math.sin(chi_t)
    return 1.0 - 2.0 * math.sin(2.0 * chi_t) * math.cos(chi_t) / ((1.0 + s * s) * (1.0 + s))


def pairwise_bound(m: float) -> float:
    """Spin-1 (pairwise-entangled) minimum transverse variance 1 - sqrt(1 - m^2)."""
    m = min(abs(m), 1.0)
    return 1.0 - math.sqrt(1.0 - m * m)


def depth_flags(chi_t: float) -> tuple[bool, bool]:
    """(below_separable, below_pairwise) recomputed from the closed forms."""
    m, v = mean_coeff(chi_t), variance_coeff(chi_t)
    return v < m * m - FLAG_MARGIN, v < pairwise_bound(m) - FLAG_MARGIN


def geometric_n(start: int, stop: int, count: int) -> list[int]:
    """The N list 'start:stop:count' denotes: geometric, rounded,
    deduplicated, endpoints included."""
    raw = np.geomspace(start, stop, count)
    return sorted({int(round(x)) for x in raw} | {start, stop})


def transfer_matrix(u: np.ndarray) -> np.ndarray:
    """E = sum_i conj(V_i) x V_i with (V_i)_{jk} = U_{2i+k, 2j}."""
    u = np.asarray(u, dtype=np.complex128)
    e = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        v = np.array([[u[2 * i + k, 2 * j] for k in range(2)] for j in range(2)])
        e += np.kron(v.conj(), v)
    return e


def weyl_eigenvalues(a: float, b: float, c: float) -> list[complex]:
    """Spectrum of E for the XX+YY+ZZ gate (criterion 3's closed form)."""
    sa, sb, sc = math.sin(a), math.sin(b), math.sin(c)
    disc = np.sqrt(complex(sc ** 2 * (sa + sb) ** 2 - 4 * sa * sb))
    return [1.0 + 0.0j, complex(sa * sb), 0.5 * sc * (sa + sb) + 0.5 * disc,
            0.5 * sc * (sa + sb) - 0.5 * disc]


def multiset_dev(got, want) -> float:
    """Best-match max distance between two small complex multisets."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return math.inf
    return float(min(max(abs(g - w) for g, w in zip(got, perm))
                     for perm in permutations(want)))


def top_quadratic_value(values_on_axes, values_on_diagonals) -> float:
    """Largest eigenvalue of the symmetric 3x3 form f(n) = n^T M n, given
    f on the unit axes e_i and on (e_i + e_j)/sqrt(2) for i < j."""
    m = np.diag(np.asarray(values_on_axes, dtype=float))
    for (i, j), value in zip(((0, 1), (0, 2), (1, 2)), values_on_diagonals):
        m[i, j] = m[j, i] = value - 0.5 * (m[i, i] + m[j, j])
    return float(np.linalg.eigvalsh(m)[-1])
