import numpy as np
import pytest

from chainsweep import (correlators as co, densemat as dm, gates, oracle,
                        squeezing as sq, transfer)
from chainsweep.errors import InputError, ToleranceError
from chainsweep.transfer import ChainSpec, LocalObservable, SIGMA_Z, build_transfer


def _random_bloch(rng):
    v = rng.standard_normal(3)
    return LocalObservable.from_bloch(v / np.linalg.norm(v))


def _random_chain(rng, n):
    c0 = complex(rng.standard_normal(), rng.standard_normal())
    c1 = complex(rng.standard_normal(), rng.standard_normal())
    norm = np.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
    return ChainSpec(n, c0 / norm, c1 / norm)


def _naive_variance(ts, obs, n):
    """Reference: the O(N^2) literal double sum of connected correlators."""
    pairs = [(m, k) for m in range(1, n + 1) for k in range(m + 1, n + 1)]
    means, two = co.site_correlations(ts, obs, n, pairs)
    squares, _ = co.site_correlations(ts, LocalObservable(obs.squared()), n, [])
    pair_value = dict(zip(pairs, two))
    total = 0.0
    for m in range(1, n + 1):
        total += squares[m - 1] - means[m - 1] ** 2
    for m in range(1, n + 1):
        for k in range(m + 1, n + 1):
            total += 2.0 * (pair_value[m, k] - means[m - 1] * means[k - 1])
    return total


def test_one_point_identity_gate():
    ts = build_transfer(gates.identity_gate(), ChainSpec(6))
    for m in range(1, 7):
        assert abs(co.one_point(ts, SIGMA_Z, m, 6) - 1.0) < 1e-14


def test_one_point_squeezing_bulk_limit():
    chi_t = 0.6
    n = 60
    ts = build_transfer(gates.squeezing_gate(chi_t), ChainSpec(n))
    s2 = np.sin(chi_t) ** 2
    bulk = (1 - 3 * s2) / (1 + s2)
    devs = [abs(co.one_point(ts, SIGMA_Z, m, n) - bulk) for m in (15, 25, 40)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-9


def test_one_point_bulk_decay_at_spectral_gap_rate():
    # successive bulk values approach the limit no slower than |lambda_2|^m
    chi_t = 0.9
    n = 30
    ts = build_transfer(gates.squeezing_gate(chi_t), ChainSpec(n))
    lam2 = np.sin(chi_t)
    s2 = lam2 ** 2
    bulk = (1 - 3 * s2) / (1 + s2)
    for m in (5, 10, 15):
        dev = abs(co.one_point(ts, SIGMA_Z, m, n) - bulk)
        assert dev <= 5.0 * lam2 ** (m - 1)


def test_one_point_rejects_bad_site():
    ts = build_transfer(gates.identity_gate(), ChainSpec(4))
    with pytest.raises(InputError):
        co.one_point(ts, SIGMA_Z, 5, 4)


def test_two_point_identity_and_ghz():
    ts = build_transfer(gates.identity_gate(), ChainSpec(5))
    assert abs(co.two_point(ts, SIGMA_Z, 2, 4, 5) - 1.0) < 1e-14
    ghz = build_transfer(gates.controlled_rotation(np.pi), ChainSpec.plus_state(8))
    for m, n in [(1, 2), (3, 7), (1, 8), (5, 8)]:
        assert abs(co.two_point(ghz, SIGMA_Z, m, n, 8) - 1.0) < 1e-12


def test_two_point_rejects_bad_order():
    ts = build_transfer(gates.identity_gate(), ChainSpec(4))
    with pytest.raises(InputError):
        co.two_point(ts, SIGMA_Z, 3, 3, 4)


def test_points_match_oracle_random():
    rng = np.random.default_rng(10)
    for seed in range(6):
        g = gates.random_gate(seed)
        obs = _random_bloch(rng)
        chain = _random_chain(rng, 8)
        ts = build_transfer(g, chain)
        state = oracle.sweep(g, chain)
        for m in range(1, 9):
            assert abs(co.one_point(ts, obs, m, 8)
                       - oracle.expect_local(state, obs, m)) < 1e-10
        for m in range(1, 9):
            for n in range(m + 1, 9):
                assert abs(co.two_point(ts, obs, m, n, 8)
                           - oracle.expect_pair(state, obs, m, n)) < 1e-10


def test_variance_identity_zero():
    ts = build_transfer(gates.identity_gate(), ChainSpec(6))
    assert abs(co.additive_variance_exact(ts, SIGMA_Z, 6).total) < 1e-12


def test_variance_ghz_quadratic():
    ts = build_transfer(gates.controlled_rotation(np.pi), ChainSpec.plus_state(4))
    asym = co.asymptotic_variance(ts, SIGMA_Z)
    assert abs(asym.quadratic_coeff - 1.0) < 1e-10
    assert abs(asym.linear_coeff) < 1e-10
    for n in (4, 10, 50):
        total = co.additive_variance_exact(ts, SIGMA_Z, n).total
        assert abs(total - n ** 2) < 1e-9 * n ** 2
        assert abs(total - asym.quadratic_coeff * n ** 2
                   - asym.linear_coeff * n) < 1e-8


def test_variance_matches_oracle_and_naive():
    rng = np.random.default_rng(11)
    for seed in range(5):
        g = gates.random_gate(seed + 40)
        obs = _random_bloch(rng)
        chain = _random_chain(rng, 10)
        ts = build_transfer(g, chain)
        state = oracle.sweep(g, chain)
        sweep_val = co.additive_variance_exact(ts, obs, 10).total
        naive_val = _naive_variance(ts, obs, 10)
        ref = oracle.collective_variance(state, obs)
        assert abs(sweep_val - ref) < 1e-8
        assert abs(sweep_val - naive_val) < 1e-9


def test_variance_general_hermitian_observable():
    # non-unit-eigenvalue observable: the diagonal term uses <A^2> exactly
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    obs = LocalObservable(0.5 * (a + a.conj().T))
    g = gates.random_gate(77)
    chain = ChainSpec(8, 0.8, 0.6)
    ts = build_transfer(g, chain)
    state = oracle.sweep(g, chain)
    got = co.additive_variance_exact(ts, obs, 8).total
    acc = np.zeros_like(state.amplitudes)
    for m in range(1, 9):
        acc += oracle._apply_local(state.amplitudes, 8, obs.matrix, m)
    ref = float(np.real(acc.conj() @ acc)) - float(np.real(state.amplitudes.conj() @ acc)) ** 2
    assert abs(got - ref) < 1e-9


def test_collective_mean_matches_oracle():
    rng = np.random.default_rng(13)
    g = gates.random_gate(3)
    obs = _random_bloch(rng)
    chain = _random_chain(rng, 9)
    ts = build_transfer(g, chain)
    state = oracle.sweep(g, chain)
    assert abs(co.collective_mean(ts, obs, 9)
               - oracle.collective_mean(state, obs)) < 1e-10


# ---------------------------------------------------------------------------
# all-sites table
# ---------------------------------------------------------------------------

def _gate_zoo(rng):
    """One seeded gate of every family."""
    u = rng.uniform
    base = gates.random_gate(int(rng.integers(1000)))
    return [base,
            gates.weyl_gate(*u(-np.pi, np.pi, 3)),
            gates.controlled_rotation(u(0.0, 2 * np.pi)),
            gates.squeezing_gate(u(0.05, 1.5)),
            gates.macroscopic_family(u(0.1, 0.9), *u(0.1, np.pi - 0.1, 2),
                                     seed=int(rng.integers(1000))),
            gates.conjugated_gate(base, gates.x_rotation(u(0.0, np.pi)),
                                  gates.x_rotation(u(0.0, np.pi)))]


def _table_cases(n, seed):
    rng = np.random.default_rng(seed)
    for g in _gate_zoo(rng):
        yield build_transfer(g, _random_chain(rng, max(n, 2))), _random_bloch(rng)


def _assert_table_matches(ts, obs, n, pairs, sites, checked, tol):
    one, two = co.site_correlations(ts, obs, n, pairs)
    assert len(one) == n and len(two) == len(pairs)
    for m in sites:
        ref = co.one_point(ts, obs, m, n)
        assert abs(one[m - 1] - ref) <= tol * max(1.0, abs(ref))
    value = dict(zip(pairs, two))
    for m, k in checked:
        ref = co.two_point(ts, obs, m, k, n)
        assert abs(value[m, k] - ref) <= tol * max(1.0, abs(ref))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 33, 200])
def test_site_correlations_match_per_site(n):
    # full pair set and nearest neighbours, both ending in pairs with n = N;
    # at N = 200 the per-entry reference covers every pair that ends at site
    # N or starts at site 1 and a seeded sample of the rest
    rng = np.random.default_rng(n)
    full = [(m, k) for m in range(1, n + 1) for k in range(m + 1, n + 1)]
    near = [(m, m + 1) for m in range(1, n)]
    if n <= 33:
        checked = full
    else:
        rest = [p for p in full if p[0] != 1 and p[1] != n]
        picks = rng.choice(len(rest), size=300, replace=False)
        checked = [p for p in full if p[0] == 1 or p[1] == n]
        checked += [rest[i] for i in picks]
    sites = range(1, n + 1)
    for ts, obs in _table_cases(n, seed=20 + n):
        _assert_table_matches(ts, obs, n, full, sites, checked, 1e-13)
        _assert_table_matches(ts, obs, n, near, sites, near, 1e-13)


def test_site_correlations_long_chain_drift():
    # sequential products against repeated squaring over 2000 sites; the
    # per-entry reference covers every tenth site and the last two
    n = 2000
    near = [(m, m + 1) for m in range(1, n)]
    sites = sorted(set(range(1, n + 1, 10)) | {n - 1, n})
    checked = [(m, m + 1) for m in sites if m < n]
    for ts, obs in _table_cases(n, seed=29):
        _assert_table_matches(ts, obs, n, near, sites, checked, 1e-12)


def test_site_correlations_rejects_bad_pairs():
    ts = build_transfer(gates.random_gate(2), ChainSpec(4))
    one, two = co.site_correlations(ts, SIGMA_Z, 4, [])
    assert len(one) == 4 and two == []
    for pairs in ([(0, 2)], [(2, 5)], [(3, 3)], [(1, 2), (4, 2)]):
        with pytest.raises(InputError):
            co.site_correlations(ts, SIGMA_Z, 4, pairs)
    with pytest.raises(InputError):
        co.site_correlations(ts, SIGMA_Z, 0, [])


# ---------------------------------------------------------------------------
# lifted-transfer contraction of collective sums
# ---------------------------------------------------------------------------

def test_lifted_contraction_matches_naive_reference():
    # N = 2 is the boundary column alone, N = 3 adds one bulk pair.  Variance
    # deviations are relative to max(|V|, N ||A||^2): when the mean dominates,
    # the naive double sum of connected correlators itself loses digits.
    rng = np.random.default_rng(16)
    worst_mean = worst_var = 0.0
    for seed in range(3):
        g = gates.random_gate(100 + seed)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        obs = LocalObservable(0.5 * (a + a.conj().T))
        ts = build_transfer(g, _random_chain(rng, 2))
        norm = np.linalg.norm(obs.matrix, 2)
        for n in range(2, 41):
            mean_ref = sum(co.one_point(ts, obs, m, n) for m in range(1, n + 1))
            var_ref = _naive_variance(ts, obs, n)
            mean = co.collective_mean(ts, obs, n)
            var = co.additive_variance_exact(ts, obs, n).total
            worst_mean = max(worst_mean, abs(mean - mean_ref) / max(abs(mean_ref), 1.0))
            worst_var = max(worst_var,
                            abs(var - var_ref) / max(abs(var_ref), n * norm ** 2))
    assert worst_mean <= 1e-12
    assert worst_var <= 1e-12


@pytest.mark.parametrize("chi_t", [0.5, 1.0, 1.4])
def test_large_n_squeezing_slopes(chi_t):
    # (X(2N) - X(N))/N equals the bulk coefficient up to O(N sin^N chi_t).
    # Repeated squaring drifts the unit eigenvalue by about N eps; dividing by
    # the state norm from the same power cancels it (without the division the
    # slopes at N = 1e8 are off by up to 9e-9).  The sigma_z variance has a
    # nonzero mean, so it also needs the mean shift.
    theta = np.pi / 4
    ts = build_transfer(gates.squeezing_gate(chi_t), ChainSpec(2))
    var_coeff = sq.variance_asymptotic_coeff(chi_t, theta)
    mean_coeff = sq.mean_z_asymptotic_coeff(chi_t)
    z_coeff = co.asymptotic_variance(ts, SIGMA_Z).linear_coeff
    for n in (10 ** 6, 10 ** 8):
        var_slope = (sq.transverse_variance(chi_t, theta, 2 * n)
                     - sq.transverse_variance(chi_t, theta, n)) / n
        mean_slope = (sq.mean_z(chi_t, 2 * n) - sq.mean_z(chi_t, n)) / n
        z_slope = (co.additive_variance_exact(ts, SIGMA_Z, 2 * n).total
                   - co.additive_variance_exact(ts, SIGMA_Z, n).total) / n
        assert abs(var_slope - var_coeff) <= 1e-12
        assert abs(mean_slope - mean_coeff) <= 1e-12
        assert abs(z_slope - z_coeff) <= 1e-12


def test_variance_error_estimate_covers_large_n_deviation():
    # A random gate with a random Hermitian observable of large mean, near
    # the largest accepted N: the exact variance must sit within its error
    # estimate of q N^2 + l N + r (r read off at N = 2000, where the decaying
    # modes are gone).
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    obs = LocalObservable(a + a.conj().T)
    ts = build_transfer(gates.random_gate(0), ChainSpec(2, 0.6, 0.8))
    asym = co.asymptotic_variance(ts, obs)

    def predicted(n):
        return asym.quadratic_coeff * n ** 2 + asym.linear_coeff * n

    rem = co.additive_variance_exact(ts, obs, 2000).total
    rem -= predicted(2000)
    for n in (10 ** 8, 2 * 10 ** 9):
        vb = co.additive_variance_exact(ts, obs, n)
        assert abs(vb.total - predicted(n) - rem) <= vb.error_estimate


def test_collective_guard_rejects_absurd_chain_length():
    ts = build_transfer(gates.squeezing_gate(0.5), ChainSpec(2))
    obs = LocalObservable.from_bloch([1.0, 1.0, 0.0])
    with pytest.raises(ToleranceError):
        co.additive_variance_exact(ts, obs, 10 ** 12)
    with pytest.raises(ToleranceError):
        co.collective_mean(ts, SIGMA_Z, 10 ** 12)


def test_collective_guard_admits_long_chain_sizes():
    # the gates and sizes of fig3 and the squeezing series up to N = 2.1e4
    obs_t = LocalObservable.from_bloch([1.0, 1.0, 0.0])
    cases = [(build_transfer(gates.controlled_rotation(np.pi - d),
                             ChainSpec.plus_state(2)), SIGMA_Z)
             for d in (0.0, 0.1, 0.2, 0.3, 0.4)]
    for chi_t in (0.3, 0.6, 0.8, 1.1):
        ts = build_transfer(gates.squeezing_gate(chi_t), ChainSpec(2))
        cases += [(ts, SIGMA_Z), (ts, obs_t)]
    for ts, obs in cases:
        for n in (4, 1000, 21000):
            vb = co.additive_variance_exact(ts, obs, n)
            assert vb.error_estimate <= 1e-3 * co.COLLECTIVE_REL_TOL * max(abs(vb.total), n)
            co.collective_mean(ts, obs, n)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def test_asymptotic_weyl_quadratic():
    for alpha in (0.25, 0.8, 1.3):
        ts = build_transfer(gates.weyl_gate(alpha, np.pi / 2, np.pi / 2), ChainSpec(4))
        asym = co.asymptotic_variance(ts, transfer.SIGMA_Y)
        assert abs(asym.quadratic_coeff - np.cos(alpha) ** 2) < 1e-10


def test_asymptotic_squeezing_linear():
    for chi_t in (0.2, 0.7, 1.2):
        ts = build_transfer(gates.squeezing_gate(chi_t), ChainSpec(4))
        obs = LocalObservable.from_bloch([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0])
        asym = co.asymptotic_variance(ts, obs)
        s = np.sin(chi_t)
        bracket = 1 - 2 * np.sin(2 * chi_t) * np.cos(chi_t) / ((1 + s ** 2) * (1 + s))
        assert abs(asym.quadratic_coeff) < 1e-10
        assert abs(asym.linear_coeff - bracket) < 1e-10


def test_asymptotic_identity_zero():
    ts = build_transfer(gates.identity_gate(), ChainSpec(4))
    asym = co.asymptotic_variance(ts, SIGMA_Z)
    assert abs(asym.quadratic_coeff) < 1e-12
    assert abs(asym.linear_coeff) < 1e-12


def test_exact_minus_asymptotic_remainder_bounded():
    rng = np.random.default_rng(15)
    for seed in (3, 8, 21):
        g = gates.random_gate(seed)
        obs = _random_bloch(rng)
        ts = build_transfer(g, ChainSpec(4))
        asym = co.asymptotic_variance(ts, obs)
        rems = []
        for n in (50, 100, 200, 400):
            total = co.additive_variance_exact(ts, obs, n).total
            rems.append(total - asym.quadratic_coeff * n ** 2
                        - asym.linear_coeff * n)
        diffs = [abs(b - a) for a, b in zip(rems, rems[1:])]
        assert diffs[-1] < 1e-6
        # transients shrink until the remainder tail hits rounding noise
        if diffs[0] > 1e-8:
            assert diffs[-1] < diffs[0]


def test_asymptotic_variance_makes_no_solve(monkeypatch):
    # P and S are fields of the spectrum; the coefficients only read them
    ts = build_transfer(gates.random_gate(13), ChainSpec.plus_state(4))
    ts.spectrum  # computed before solve is forbidden
    want = co.asymptotic_variance(ts, SIGMA_Z)

    def forbidden(*args, **kwargs):
        raise AssertionError("densemat.solve called by asymptotic_variance")

    monkeypatch.setattr(dm, "solve", forbidden)
    assert co.asymptotic_variance(ts, SIGMA_Z) == want


@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_asymptotic_remainder_bounded_on_unimodular_spectrum(gamma):
    # weyl(pi/2, -pi/2, g) has eigenvalues 1, 1, -1, -1.  A unital channel's
    # unimodular eigenvalues are semisimple, so the -1 pair adds a bounded
    # period-2 term to V(N) - q N^2 - l N, and l is exact: shifting it by
    # 1e-3 moves the remainder by 1 between N and 2N.
    ts = build_transfer(gates.weyl_gate(np.pi / 2, -np.pi / 2, gamma),
                        ChainSpec(4, 0.6, 0.8j))
    rng = np.random.default_rng(41)
    for _ in range(3):
        obs = _random_bloch(rng)
        asym = co.asymptotic_variance(ts, obs)
        rem = {n: co.additive_variance_exact(ts, obs, n).total
               - asym.quadratic_coeff * n ** 2 - asym.linear_coeff * n
               for n in (1000, 1001, 2000, 2001, 4000, 4001)}
        assert max(abs(r) for r in rem.values()) < 2.0
        for n in (2000, 4000):
            assert abs(rem[n] - rem[1000]) < 1e-6
            assert abs(rem[n + 1] - rem[1001]) < 1e-6


def test_variances_reject_non_hermitian_observable():
    # the raising operator is rejected where it enters, before any variance
    with pytest.raises(InputError, match="Hermitian"):
        LocalObservable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_collective_mean_rejects_empty_chain():
    ts = build_transfer(gates.random_gate(5), ChainSpec(4))
    with pytest.raises(InputError, match="chain needs at least 1 site, got 0"):
        co.collective_mean(ts, SIGMA_Z, 0)


def test_variance_breakdown_fields():
    ts = build_transfer(gates.squeezing_gate(0.5), ChainSpec(4))
    obs = LocalObservable.from_bloch([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0])
    vb = co.additive_variance_exact(ts, obs, 200)
    asym = co.asymptotic_variance(ts, obs)
    remainder = vb.total - asym.quadratic_coeff * 200 ** 2 - asym.linear_coeff * 200
    recon = asym.quadratic_coeff * 200 ** 2 + asym.linear_coeff * 200 + remainder
    assert abs(recon - vb.total) < 1e-9
