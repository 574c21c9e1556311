import numpy as np
import pytest

from chainsweep import correlators, gates, oracle, squeezing as sq
from chainsweep.errors import InputError, ToleranceError
from chainsweep.transfer import ChainSpec, LocalObservable, SIGMA_X, SIGMA_Y, SIGMA_Z


def _bracket(chi_t):
    s = np.sin(chi_t)
    return 1 - 2 * np.sin(2 * chi_t) * np.cos(chi_t) / ((1 + s ** 2) * (1 + s))


def _mean_coeff(chi_t):
    s2 = np.sin(chi_t) ** 2
    return (1 - 3 * s2) / (1 + s2)


def test_mean_z_trivial_limits():
    assert sq.mean_z(0.0, 10, mode="exact") == 10.0
    assert sq.mean_z(0.0, 10, mode="asymptotic") == 10.0
    assert abs(sq.mean_z(np.pi / 2, 12, mode="asymptotic") + 12.0) < 1e-12


def test_mean_z_exact_vs_oracle_and_asymptote():
    chi_t, n = 0.4, 10
    state = oracle.sweep(gates.squeezing_gate(chi_t), ChainSpec(n))
    exact = sq.mean_z(chi_t, n, mode="exact")
    assert abs(exact - oracle.collective_mean(state, SIGMA_Z)) < 1e-10
    assert abs(exact - sq.mean_z(chi_t, n, mode="asymptotic")) < 2.0  # O(1) boundary


def test_transverse_variance_uncorrelated_limit():
    for theta in (0.0, 0.7, 2.5):
        assert abs(sq.transverse_variance(0.0, theta, 9, mode="exact") - 9.0) < 1e-12


def test_transverse_variance_asymptotic_bracket():
    for chi_t in (0.15, 0.6, 1.1):
        coeff = sq.transverse_variance(chi_t, np.pi / 4, 1000, mode="asymptotic") / 1000
        assert abs(coeff - _bracket(chi_t)) < 1e-10


def test_transverse_variance_exact_vs_oracle():
    chi_t, n = 0.3, 10
    state = oracle.sweep(gates.squeezing_gate(chi_t), ChainSpec(n))
    for theta in np.linspace(0, np.pi, 7):
        obs = LocalObservable.from_bloch([np.cos(theta), np.sin(theta), 0.0])
        assert abs(sq.transverse_variance(chi_t, theta, n, mode="exact")
                   - oracle.collective_variance(state, obs)) < 1e-8


def test_mean_and_variance_vs_oracle_full_grid():
    # the whole coupling grid at moderate N
    n = 7
    obs = LocalObservable.from_bloch([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0])
    for k in range(1, 16):
        chi_t = 0.1 * k
        state = oracle.sweep(gates.squeezing_gate(chi_t), ChainSpec(n))
        assert abs(sq.mean_z(chi_t, n, mode="exact")
                   - oracle.collective_mean(state, SIGMA_Z)) < 1e-8
        assert abs(sq.transverse_variance(chi_t, np.pi / 4, n, mode="exact")
                   - oracle.collective_variance(state, obs)) < 1e-8


def test_transverse_means_vanish_identically():
    for n in (4, 9):
        state = oracle.sweep(gates.squeezing_gate(0.8), ChainSpec(n))
        assert abs(oracle.collective_mean(state, SIGMA_X)) < 1e-12
        assert abs(oracle.collective_mean(state, SIGMA_Y)) < 1e-12


def test_optimal_theta_quarter():
    for chi_t in (0.3, 0.6, 1.0, 1.4):
        theta, degenerate = sq.optimal_theta(chi_t)
        assert not degenerate
        assert abs(theta - np.pi / 4) < 1e-6


def test_optimal_theta_grid_confirms():
    chi_t = 0.6
    theta, _ = sq.optimal_theta(chi_t)
    best = sq.variance_asymptotic_coeff(chi_t, theta)
    grid = np.linspace(0, np.pi, 10**4, endpoint=False)
    values = 1 - (2 * np.sin(2 * chi_t) * np.cos(chi_t)
                  / ((1 + np.sin(chi_t) ** 2) * (1 + np.sin(chi_t)))) * np.sin(2 * grid)
    assert best <= values.min() + 1e-12


def test_optimal_theta_flat_landscape():
    theta, degenerate = sq.optimal_theta(1e-10)
    assert degenerate
    assert abs(sq.variance_asymptotic_coeff(1e-10, theta) - 1.0) < 1e-9


def test_optimal_theta_closed_form_exact():
    # the closed-form minimizer hits pi/4 to rounding across the coupling grid
    for k in range(1, 16):
        theta, degenerate = sq.optimal_theta(0.1 * k)
        assert not degenerate
        assert abs(theta - np.pi / 4) <= 1e-12


def test_optimal_theta_rejects_non_quadratic_landscape(monkeypatch):
    # a landscape that is not a + b cos 2theta + c sin 2theta must raise,
    # not return the extremum of the wrong model
    def fake(ts, obs, spec=None):
        return correlators.AsymptoticVariance(
            quadratic_coeff=0.0, linear_coeff=1.0 + 0.5 * obs.bloch[0] ** 4)

    monkeypatch.setattr(correlators, "asymptotic_variance", fake)
    with pytest.raises(ToleranceError):
        sq.optimal_theta(0.6)
    with pytest.raises(ToleranceError):
        sq.fig4_curve([0.6])


def test_xi_squared_coherent_limit():
    assert abs(sq.xi_squared(1e-10, n_sites=8, mode="exact") - 1.0) < 1e-6


def test_xi_squared_squeezed():
    val = sq.xi_squared(0.2, mode="asymptotic")
    assert val < 1.0
    exact = sq.xi_squared(0.2, n_sites=10, mode="exact")
    assert abs(exact - val) < 10.0 / 10  # O(1/N)


def test_xi_squared_convention_invariance():
    # J = A/2 rescaling leaves xi^2 unchanged: N (Var/4) / (mean/2)^2
    chi_t, n = 0.25, 12
    theta, _ = sq.optimal_theta(chi_t)
    var = sq.transverse_variance(chi_t, theta, n, mode="exact")
    mean = sq.mean_z(chi_t, n, mode="exact")
    a_convention = n * var / mean ** 2
    j_convention = n * (var / 4) / (mean / 2) ** 2
    assert abs(a_convention - j_convention) < 1e-12
    assert abs(sq.xi_squared(chi_t, n_sites=n, mode="exact") - a_convention) < 1e-12


def test_xi_squared_rejects_vanishing_mean():
    # mean coefficient vanishes at sin^2 = 1/3
    chi_t = np.arcsin(np.sqrt(1 / 3))
    with pytest.raises(InputError):
        sq.xi_squared(chi_t, mode="asymptotic")


def test_xi_squared_finite_size_convergence():
    # exact values approach the asymptote at the O(1/N) rate
    chi_t = 0.25
    limit = sq.xi_squared(chi_t, mode="asymptotic")
    scaled = [n * abs(sq.xi_squared(chi_t, n_sites=n, mode="exact") - limit)
              for n in (50, 100, 200)]
    assert max(scaled) / min(scaled) < 1.5
    assert abs(sq.xi_squared(chi_t, n_sites=400, mode="exact") - limit) < 0.01


def test_sm_bound_half_is_parabola():
    grid = np.linspace(0, 1, 26)
    curve = sq.sm_bound(0.5, grid)
    for m, v in curve.samples:
        assert abs(v - m * m) < 1e-8


def _f1_analytic(m):
    # ground-state family of J_x^2 - mu J_z in the spin-1 irrep, solved in
    # closed form: an independent check on the numerical scan
    if m >= 1.0:
        return 1.0
    if m <= 0.0:
        return 0.0
    rm = 0.5 * np.sqrt((1 - m) / (1 + m))
    mu = (0.25 / rm - rm) / 2
    big_r = mu + rm
    return 2 * (0.5 - big_r + mu * m)


def test_sm_bound_one_matches_analytic():
    grid = np.linspace(0, 1, 21)
    curve = sq.sm_bound(1.0, grid)
    for m, v in curve.samples:
        assert abs(v - _f1_analytic(m)) < 1e-6


def test_sm_bound_endpoints():
    for j in (0.5, 1.0):
        curve = sq.sm_bound(j, [0.0, 1.0])
        assert abs(curve.samples[0][1]) < 1e-12
        assert abs(curve.samples[-1][1] - 1.0) < 1e-9


def test_sm_bound_pairwise_below_separable():
    grid = np.linspace(0.05, 0.95, 19)
    pair = sq.sm_bound(1.0, grid)
    for m, v in pair.samples:
        assert v <= m * m + 1e-12


def test_sm_bound_convexity():
    curve = sq.sm_bound(1.0, np.linspace(0, 1, 41))
    pts = curve.samples
    for (x0, y0), (x1, y1), (x2, y2) in zip(pts, pts[1:], pts[2:]):
        lam = (x1 - x0) / (x2 - x0)
        chord = (1 - lam) * y0 + lam * y2
        assert y1 <= chord + 1e-9


def test_sm_bound_rejects_unsupported():
    with pytest.raises(InputError):
        sq.sm_bound(1.5, [0.5])
    with pytest.raises(InputError):
        sq.sm_bound(1.0, [1.5])


def test_fig4_trajectory_limits_and_flags():
    rows = sq.fig4_curve([0.001, 0.2, 0.3, 0.9, 1.4])
    first = rows[0]
    assert abs(first["m"] - 1.0) < 1e-3 and abs(first["v"] - 1.0) < 1e-2
    for row in rows:
        assert row["v"] >= 0.0
        assert abs(row["m"]) <= 1.0
    hits = [r for r in rows if r["below_pairwise"] and r["m"] > 0.5]
    assert hits, "the squeezing trajectory must beat the pairwise bound somewhere"


def test_fig4_pairwise_bound_is_closed_form():
    # the pairwise bound is steepest near |m| -> 1; it must hold to rounding
    row = sq.fig4_curve([0.02])[0]
    assert abs(row["f_one"] - (1.0 - np.sqrt(1.0 - row["m"] ** 2))) <= 1e-12


def test_fig4_rejects_out_of_range():
    with pytest.raises(InputError):
        sq.fig4_curve([0.0])
    with pytest.raises(InputError):
        sq.fig4_curve([np.pi / 2])


def test_variance_fit_recovers_bracket_moderate_chi():
    # the N in {100..800} window resolves the linear coefficient once the
    # spectral gap 1 - sin(chi t) is not small
    ns = np.array([100, 200, 400, 800])
    design = np.vstack([np.ones(4), ns]).T
    for chi_t in (0.1, 0.5, 1.0):
        vals = np.array([sq.transverse_variance(chi_t, np.pi / 4, int(n), mode="exact")
                         for n in ns])
        slope = np.linalg.lstsq(design, vals, rcond=None)[0][1]
        assert abs(slope - _bracket(chi_t)) < 1e-4
        means = np.array([sq.mean_z(chi_t, int(n), mode="exact") for n in ns])
        mean_slope = np.linalg.lstsq(design, means, rcond=None)[0][1]
        assert abs(mean_slope - _mean_coeff(chi_t)) < 1e-4
