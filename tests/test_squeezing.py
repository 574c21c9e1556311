import numpy as np
import pytest

from chainsweep import cli, correlators, gates, oracle, squeezing as sq, transfer
from chainsweep.errors import InputError, ToleranceError
from chainsweep.transfer import (ChainSpec, LocalObservable, SIGMA_X, SIGMA_Y, SIGMA_Z,
                                 build_transfer)


def _bracket(chi_t):
    s = np.sin(chi_t)
    return 1 - 2 * np.sin(2 * chi_t) * np.cos(chi_t) / ((1 + s ** 2) * (1 + s))


def _mean_coeff(chi_t):
    s2 = np.sin(chi_t) ** 2
    return (1 - 3 * s2) / (1 + s2)


def test_mean_z_trivial_limits():
    assert sq.mean_z(0.0, 10) == 10.0
    assert 10 * sq.mean_z_asymptotic_coeff(0.0) == 10.0
    assert abs(12 * sq.mean_z_asymptotic_coeff(np.pi / 2) + 12.0) < 1e-12


def test_mean_z_exact_vs_oracle_and_asymptote():
    chi_t, n = 0.4, 10
    state = oracle.sweep(gates.squeezing_gate(chi_t), ChainSpec(n))
    exact = sq.mean_z(chi_t, n)
    assert abs(exact - oracle.collective_mean(state, SIGMA_Z)) < 1e-10
    assert abs(exact - n * sq.mean_z_asymptotic_coeff(chi_t)) < 2.0  # O(1) boundary


def test_transverse_variance_uncorrelated_limit():
    for theta in (0.0, 0.7, 2.5):
        assert abs(sq.transverse_variance(0.0, theta, 9) - 9.0) < 1e-12


@pytest.mark.parametrize("theta", [np.inf, np.nan, np.array([0.3, np.inf])])
def test_transverse_observable_refuses_a_non_finite_theta(theta):
    # one InputError, and no RuntimeWarning, which the suite makes an error
    with pytest.raises(InputError, match="finite"):
        sq.transverse_variance(0.5, theta, 10)


def test_transverse_variance_asymptotic_bracket():
    for chi_t in (0.15, 0.6, 1.1):
        coeff = sq.variance_asymptotic_coeff(chi_t, np.pi / 4)
        assert abs(coeff - _bracket(chi_t)) < 1e-10


def test_transverse_variance_exact_vs_oracle():
    chi_t, n = 0.3, 10
    state = oracle.sweep(gates.squeezing_gate(chi_t), ChainSpec(n))
    for theta in np.linspace(0, np.pi, 7):
        obs = LocalObservable.from_bloch([np.cos(theta), np.sin(theta), 0.0])
        assert abs(sq.transverse_variance(chi_t, theta, n)
                   - oracle.collective_variance(state, obs)) < 1e-8


def test_mean_and_variance_vs_oracle_full_grid():
    # the whole coupling grid at moderate N
    n = 7
    obs = LocalObservable.from_bloch([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0])
    for k in range(1, 16):
        chi_t = 0.1 * k
        state = oracle.sweep(gates.squeezing_gate(chi_t), ChainSpec(n))
        assert abs(sq.mean_z(chi_t, n)
                   - oracle.collective_mean(state, SIGMA_Z)) < 1e-8
        assert abs(sq.transverse_variance(chi_t, np.pi / 4, n)
                   - oracle.collective_variance(state, obs)) < 1e-8


def test_transverse_means_vanish_identically():
    for n in (4, 9):
        state = oracle.sweep(gates.squeezing_gate(0.8), ChainSpec(n))
        assert abs(oracle.collective_mean(state, SIGMA_X)) < 1e-12
        assert abs(oracle.collective_mean(state, SIGMA_Y)) < 1e-12


def test_transfer_set_shared_per_chi_t_and_read_only():
    # mean_z and transverse_variance at one chi_t (one call per N) share a
    # single transfer set, which must therefore be immutable.
    ts = sq._transfer_for(0.37)
    assert sq._transfer_for(0.37) is ts
    with pytest.raises(ValueError):
        ts.e[0, 0] = 1
    with pytest.raises(ValueError):
        ts.vrow[0] = 1


def test_squeezing_series_on_one_transfer_set_equals_fresh_sets():
    # a series alternates the sigma_z and A_theta means on one shared set
    chi_t, theta = 0.43, np.pi / 4
    obs = sq._transverse_obs(theta)

    def series():
        for n in (2, 5, 12, 300, 20100):
            yield (sq.mean_z(chi_t, n), sq.transverse_variance(chi_t, theta, n),
                   correlators.collective_mean(sq._transfer_for(chi_t), obs, n))

    sq._transfer_for.cache_clear()
    shared = list(series())
    fresh = []
    for n in (2, 5, 12, 300, 20100):
        row = []
        for call in (lambda: sq.mean_z(chi_t, n),
                     lambda: sq.transverse_variance(chi_t, theta, n),
                     lambda: correlators.collective_mean(sq._transfer_for(chi_t), obs, n)):
            sq._transfer_for.cache_clear()
            row.append(call())
        fresh.append(tuple(row))
    assert shared == fresh


def test_memo_stays_bounded_over_a_theta_sweep():
    chi_t, n = 0.61, 1500
    sq._transfer_for.cache_clear()
    thetas = np.linspace(0.0, np.pi, 100)
    swept = [sq.transverse_variance(chi_t, theta, n) for theta in thetas]
    memo = sq._transfer_for(chi_t)._memo
    assert len(memo) == transfer.MEMO_ENTRIES
    for theta, value in zip(thetas[::11], swept[::11]):
        sq._transfer_for.cache_clear()
        assert sq.transverse_variance(chi_t, theta, n) == value
    # an array theta still gives an array, bitwise the scalar calls
    stacked = sq.transverse_variance(chi_t, thetas[:5], n)
    assert isinstance(stacked, np.ndarray) and stacked.tolist() == swept[:5]


@pytest.mark.parametrize("n_sites", [2.5, 10.0, np.float64(10.0), "10"])
def test_chain_length_checked_at_entry(n_sites):
    for call in (lambda: sq.mean_z(0.5, n_sites),
                 lambda: sq.transverse_variance(0.5, 0.3, n_sites),
                 lambda: sq.xi_squared(0.5, n_sites)):
        with pytest.raises(InputError, match="chain length must be an integer"):
            call()


def test_chain_length_takes_numpy_integers():
    assert sq.mean_z(0.5, np.int64(10)) == sq.mean_z(0.5, 10)
    assert sq.transverse_variance(0.5, 0.3, np.int64(10)) == sq.transverse_variance(0.5, 0.3, 10)
    assert sq.xi_squared(0.5, np.int64(10)) == sq.xi_squared(0.5, 10)
    with pytest.raises(InputError, match="chain needs at least 2 sites, got 1"):
        sq.xi_squared(0.5, 1)


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


def _quartic_landscape(monkeypatch, bumped=None):
    # l(theta) = 1 + cos(theta)^4 / 2, not of the form a + b cos 2theta +
    # c sin 2theta, at every point or only at batch index ``bumped``
    def fake(ts, obs):
        bump = np.ones(ts.e.shape[:-2])
        if bumped is not None:
            bump = (np.arange(bump.size) == bumped).reshape(bump.shape)
        return correlators.AsymptoticVariance(
            quadratic_coeff=0.0,
            linear_coeff=1.0 + 0.5 * bump * obs.matrix[..., 0, 1].real ** 4)

    monkeypatch.setattr(correlators, "asymptotic_variance", fake)


def test_optimal_theta_rejects_non_quadratic_landscape(monkeypatch):
    # a landscape that is not a + b cos 2theta + c sin 2theta must raise,
    # not return the extremum of the wrong model
    _quartic_landscape(monkeypatch)
    with pytest.raises(ToleranceError):
        sq.optimal_theta(0.6)
    with pytest.raises(ToleranceError):
        sq.fig4_curve([0.6])


GRID5 = [0.2, 0.5, 0.8, 1.1, 1.4]


def test_fig4_rejects_one_non_quadratic_point(monkeypatch):
    # one bad point among five fails the whole grid
    _quartic_landscape(monkeypatch, bumped=3)
    with pytest.raises(ToleranceError):
        sq.fig4_curve(GRID5)


def test_fig4_cli_exits_3_without_rows_on_one_non_quadratic_point(monkeypatch, capsys):
    _quartic_landscape(monkeypatch, bumped=3)
    code = cli.main(["fig4", "--chi-t", ",".join(map(str, GRID5))])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "not quadratic" in captured.err


def _bench_grid(seed, lo=0.02, hi=1.5, count=75):
    # the jittered grid of the fig4-trajectory benchmark
    base = np.linspace(lo, hi, count)
    base[1:-1] += np.random.default_rng(seed).uniform(-0.45, 0.45, count - 2) * (base[1] - base[0])
    return [float(x) for x in base]


FIG4_GRIDS = [cli.parse_grid("0.02:1.5:75"), _bench_grid(11)]


@pytest.mark.parametrize("grid", FIG4_GRIDS, ids=["default", "jittered"])
def test_stacked_squeezing_gate_bitwise_equals_per_point(grid):
    stacked = gates.squeezing_gate(np.asarray(grid)).matrix
    per_point = np.stack([gates.squeezing_gate(c).matrix for c in grid])
    assert np.array_equal(stacked, per_point)
    # and the signs of the zero entries agree, which array_equal does not see
    assert np.array_equal(np.signbit(stacked.view(float)), np.signbit(per_point.view(float)))


@pytest.mark.parametrize("chi_t", [0.7, np.asarray(FIG4_GRIDS[0])], ids=["scalar", "fig4"])
def test_stacked_theta_probes_bitwise_equal_separate_calls(chi_t):
    # _theta_optimum evaluates l at theta = 0, pi/4, pi/2 in one stacked call
    ts = build_transfer(gates.squeezing_gate(chi_t), ChainSpec(2))
    probes = np.array([0.0, np.pi / 4, np.pi / 2])
    stacked = sq._linear_coeff(ts, probes.reshape((3,) + (1,) * (ts.e.ndim - 2)))
    assert stacked.shape == (3,) + ts.e.shape[:-2]
    separate = [sq._linear_coeff(ts, theta) for theta in probes]
    for got, want in zip(stacked, separate):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    l0, l1, l2 = separate
    b, c = 0.5 * (l0 - l2), l1 - 0.5 * (l0 + l2)
    assert np.array_equal(sq._theta_optimum(ts)[0], 0.5 * np.arctan2(-c, -b) % np.pi)


@pytest.mark.parametrize("grid", FIG4_GRIDS, ids=["default", "jittered"])
def test_fig4_stacked_pass_bitwise_equals_per_point(grid):
    rows = sq.fig4_curve(grid)
    fixed = sq.fig4_curve(grid, theta=np.pi / 4)
    for chi_t, row, row_fixed in zip(grid, rows, fixed):
        ts = build_transfer(gates.squeezing_gate(chi_t), ChainSpec(2))
        assert row["v"] == sq._theta_optimum(ts)[1]
        assert type(row["v"]) is float
        assert row_fixed["v"] == sq.variance_asymptotic_coeff(chi_t, np.pi / 4)
        assert row["m"] == row_fixed["m"] == sq.mean_z_asymptotic_coeff(chi_t)


@pytest.mark.parametrize("theta", [None, "pi/4"])
def test_fig4_cli_csv_is_the_formatted_rows(theta, capsys, csv_row):
    grid = FIG4_GRIDS[1]
    argv = ["fig4", "--chi-t", ",".join(map(repr, grid))]
    argv += ["--theta", theta] if theta else []
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[1].split(",")
    rows = sq.fig4_curve(grid, theta=None if theta is None else np.pi / 4)
    assert lines[2:] == [csv_row(*(row[k] for k in header)) for row in rows]


def test_xi_squared_coherent_limit():
    assert abs(sq.xi_squared(1e-10, n_sites=8) - 1.0) < 1e-6


def test_xi_squared_squeezed():
    val = sq.xi_squared(0.2)
    assert val < 1.0
    exact = sq.xi_squared(0.2, n_sites=10)
    assert abs(exact - val) < 10.0 / 10  # O(1/N)


def test_xi_squared_convention_invariance():
    # J = A/2 rescaling leaves xi^2 unchanged: N (Var/4) / (mean/2)^2
    chi_t, n = 0.25, 12
    theta, _ = sq.optimal_theta(chi_t)
    var = sq.transverse_variance(chi_t, theta, n)
    mean = sq.mean_z(chi_t, n)
    a_convention = n * var / mean ** 2
    j_convention = n * (var / 4) / (mean / 2) ** 2
    assert abs(a_convention - j_convention) < 1e-12
    assert abs(sq.xi_squared(chi_t, n_sites=n) - a_convention) < 1e-12


def test_xi_squared_limit_is_coefficient_ratio():
    # no chain length gives the N -> infinity limit l(theta*) / m^2
    for chi_t in (0.05, 0.2, 0.7, 1.3):
        theta, _ = sq.optimal_theta(chi_t)
        assert sq.xi_squared(chi_t) == (sq.variance_asymptotic_coeff(chi_t, theta)
                                        / sq.mean_z_asymptotic_coeff(chi_t) ** 2)


def test_xi_squared_rejects_vanishing_mean():
    # mean coefficient vanishes at sin^2 = 1/3
    chi_t = np.arcsin(np.sqrt(1 / 3))
    with pytest.raises(InputError):
        sq.xi_squared(chi_t)


def test_xi_squared_finite_size_convergence():
    # exact values approach the asymptote at the O(1/N) rate
    chi_t = 0.25
    limit = sq.xi_squared(chi_t)
    scaled = [n * abs(sq.xi_squared(chi_t, n_sites=n) - limit)
              for n in (50, 100, 200)]
    assert max(scaled) / min(scaled) < 1.5
    assert abs(sq.xi_squared(chi_t, n_sites=400) - limit) < 0.01


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
    with pytest.raises(InputError, match="only j = 1/2 and j = 1"):
        sq.sm_bound(float("nan"), [0.5])
    with pytest.raises(InputError, match=r"m grid must lie in \[0, 1\]"):
        sq.sm_bound(0.5, [float("nan"), 0.3])


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
        vals = np.array([sq.transverse_variance(chi_t, np.pi / 4, int(n))
                         for n in ns])
        slope = np.linalg.lstsq(design, vals, rcond=None)[0][1]
        assert abs(slope - _bracket(chi_t)) < 1e-4
        means = np.array([sq.mean_z(chi_t, int(n)) for n in ns])
        mean_slope = np.linalg.lstsq(design, means, rcond=None)[0][1]
        assert abs(mean_slope - _mean_coeff(chi_t)) < 1e-4
