import numpy as np
import pytest

from chainsweep import correlators as co, gates, oracle, squeezing as sq, transfer
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
    squares, _ = co.site_correlations(ts, LocalObservable(obs.matrix @ obs.matrix), n, [])
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
    # a non-integer site is named, not walked as a fractional power
    for m in (2.5, 2.0, np.float64(2.0)):
        with pytest.raises(InputError, match="site must be an integer"):
            co.one_point(ts, SIGMA_Z, m, 4)


def test_two_point_identity_and_ghz():
    ts = build_transfer(gates.identity_gate(), ChainSpec(5))
    assert abs(co.two_point(ts, SIGMA_Z, 2, 4, 5) - 1.0) < 1e-14
    ghz = build_transfer(gates.controlled_rotation(np.pi), ChainSpec.plus_state(8))
    for m, n in [(1, 2), (3, 7), (1, 8), (5, 8)]:
        assert abs(co.two_point(ghz, SIGMA_Z, m, n, 8) - 1.0) < 1e-12


def test_two_point_rejects_bad_order():
    ts = build_transfer(gates.identity_gate(), ChainSpec(4))
    with pytest.raises(InputError, match=r"need m < n, got \(3,3\)"):
        co.two_point(ts, SIGMA_Z, 3, 3, 4)
    for m, n in ((1.5, 3), (1, 3.0)):
        with pytest.raises(InputError, match="two integer sites"):
            co.two_point(ts, SIGMA_Z, m, n, 4)


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


def _assert_table_matches(ts, obs, n, pairs, sites, checked):
    # the table walks the same squaring ladder as the per-entry calls, so
    # every value is bitwise theirs
    one, two = co.site_correlations(ts, obs, n, pairs)
    assert len(one) == n and len(two) == len(pairs)
    for m in sites:
        assert one[m - 1] == co.one_point(ts, obs, m, n)
    value = dict(zip(pairs, two))
    for m, k in checked:
        assert value[m, k] == co.two_point(ts, obs, m, k, n)


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
        _assert_table_matches(ts, obs, n, full, sites, checked)
        _assert_table_matches(ts, obs, n, near, sites, near)


@pytest.mark.parametrize("n", [2, 10, 33, 1000])
def test_site_correlations_take_an_integer_pair_array(n):
    # the (P, 2) int64 array is used as it is and gives the values of the
    # same pairs as a list of tuples
    rng = np.random.default_rng(40 + n)
    ts, obs = build_transfer(gates.random_gate(n), _random_chain(rng, n)), _random_bloch(rng)
    full = [(m, k) for m in range(1, n + 1) for k in range(m + 1, n + 1)]
    near = [(m, m + 1) for m in range(1, n)]
    for pairs in ((full, near) if n <= 33 else (near,)):
        sites = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        assert co._pair_sites(sites, n) is sites
        assert co.site_correlations(ts, obs, n, sites) == co.site_correlations(ts, obs, n, pairs)


def test_site_correlations_long_chain_drift():
    # 2000 sites, eleven table blocks; the per-entry reference covers every
    # tenth site and the last two
    n = 2000
    near = [(m, m + 1) for m in range(1, n)]
    sites = sorted(set(range(1, n + 1, 10)) | {n - 1, n})
    checked = [(m, m + 1) for m in sites if m < n]
    for ts, obs in _table_cases(n, seed=29):
        _assert_table_matches(ts, obs, n, near, sites, checked)


def test_site_correlations_rejects_bad_pairs():
    ts = build_transfer(gates.random_gate(2), ChainSpec(4))
    one, two = co.site_correlations(ts, SIGMA_Z, 4, [])
    assert len(one) == 4 and two == []
    for pairs in ([(0, 2)], [(2, 5)], [(3, 3)], [(1, 2), (4, 2)]):
        with pytest.raises(InputError):
            co.site_correlations(ts, SIGMA_Z, 4, pairs)
    with pytest.raises(InputError):
        co.site_correlations(ts, SIGMA_Z, 0, [])
    # the first bad entry is named; range and order keep their messages
    for pairs, named in (([(1, 2), (0, 2), (3, 3)], r"sites \(0,2\) outside 1\.\.4"),
                         ([(1, 2), (4, 2)], r"need m < n, got \(4,2\)"),
                         ([(1, 2 ** 70)], r"sites \(1,\d+\) outside 1\.\.4"),  # past int64
                         ([(2.9, 4)], r"\(2\.9, 4\)"),      # was truncated to (2, 4)
                         ([(1, 2), (2.9, 4)], r"\(2\.9, 4\)"),
                         ([(1, 2, 3)], r"\(1, 2, 3\)"),      # was numpy's bare ValueError
                         ([(1, 2), (3,)], r"\(3,\)"),
                         (np.array([[2.0, 4.0]]), r"\[2\. 4\.\]"),
                         ([(1, "2")], "two integer sites")):
        with pytest.raises(InputError, match=named):
            co.site_correlations(ts, SIGMA_Z, 4, pairs)


@pytest.mark.parametrize("shape", [(), (3,)])
def test_imaginary_residue_guard(shape):
    # _real refuses an imaginary part above IMAG_TOL max(1, |scale|) and
    # drops one below it, for one value and for a stack alike
    def value(z):
        return np.full(shape, z)[()]

    with pytest.raises(ToleranceError, match="imaginary residue 1.000e-09"):
        co._real(value(1 + 1e-9j))
    for z, scale in ((1 + 1e-11j, 1.0), (1 + 1e-9j, 100.0)):
        real = co._real(value(z), scale=scale)
        if shape:
            assert isinstance(real, np.ndarray) and real.tolist() == [1.0] * 3
        else:
            assert type(real) is float and real == 1.0


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


def test_variance_subtracts_the_shifted_mean_at_huge_n():
    # controlled_rotation(pi - 0.4) on |+> with sigma_z: the exact variance
    # is the same at every N from 1e4 on.  The shifted sum keeps a mean M1
    # of 0.91 at N = 1e16 and 25 at 1e18; without its square subtracted the
    # variance read 1875.90 and 2516.98 there.
    ts = build_transfer(gates.controlled_rotation(np.pi - 0.4), ChainSpec.plus_state(2))
    want = co.additive_variance_exact(ts, SIGMA_Z, 10 ** 4).total
    for n in (10 ** 16, 10 ** 18):
        assert abs(co.additive_variance_exact(ts, SIGMA_Z, n).total - want) <= 1e-12 * want


def test_variance_of_a_drifting_macroscopic_gate_at_n_1e8():
    # The 8x8 mean walk of this case carries an imaginary residue of 4.0e-2
    # at N = 1e8, above IMAG_TOL N, so a variance shifted by mean/N raised
    # here; the N-independent shift needs no mean walk.
    ts = build_transfer(gates.macroscopic_family(0.3, 1.0, 2.0, seed=0),
                        ChainSpec(2, 0.6, 0.8j))
    obs = LocalObservable.from_bloch([1.0, 1.0, 0.0])
    asym = co.asymptotic_variance(ts, obs)
    n = 10 ** 8
    want = asym.quadratic_coeff * n ** 2 + asym.linear_coeff * n
    assert abs(co.additive_variance_exact(ts, obs, n).total - want) <= 1e-12 * want


def test_collective_guard_rejects_absurd_chain_length():
    ts = build_transfer(gates.squeezing_gate(0.5), ChainSpec(2))
    obs = LocalObservable.from_bloch([1.0, 1.0, 0.0])
    with pytest.raises(ToleranceError):
        co.additive_variance_exact(ts, obs, 10 ** 12)
    # CNOT on |+>: a degenerate unit eigenvalue, whose N eps estimate the
    # shifted walk keeps
    cnot = build_transfer(gates.controlled_rotation(np.pi), ChainSpec.plus_state(2))
    with pytest.raises(ToleranceError):
        co.collective_mean(cnot, SIGMA_Z, 10 ** 12)


def test_collective_mean_is_linear_at_huge_n():
    # N mu + M1 keeps the mean's bounded part apart from its N-fold part, so
    # the mean at N = 1e12 is N times the bulk coefficient plus the boundary
    # constant read at N = 2000 (the unshifted 8x8 walk refused it)
    ts = build_transfer(gates.squeezing_gate(0.5), ChainSpec(2))
    coeff = sq.mean_z_asymptotic_coeff(0.5)
    boundary = co.collective_mean(ts, SIGMA_Z, 2000) - 2000 * coeff
    n = 10 ** 12
    want = n * coeff + boundary
    assert abs(co.collective_mean(ts, SIGMA_Z, n) - want) <= 1e-12 * abs(want)


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
    ts.spectrum  # computed before solve and inv are forbidden
    want = co.asymptotic_variance(ts, SIGMA_Z)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.solve or inv called by asymptotic_variance")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np.linalg, "inv", forbidden)
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
    with pytest.raises(InputError, match="chain needs at least 2 sites, got 1"):
        co.additive_variance_exact(ts, SIGMA_Z, 1)


@pytest.mark.parametrize("n_sites", [2.5, 10.0, np.float64(10.0), "10", None])
def test_collective_sums_reject_non_integer_chain_length(n_sites):
    ts = build_transfer(gates.random_gate(5), ChainSpec(4))
    for call in (co.collective_mean, co.additive_variance_exact):
        with pytest.raises(InputError, match="chain length must be an integer"):
            call(ts, SIGMA_Z, n_sites)


@pytest.mark.parametrize("n_sites", [4.5, 4.0, np.float64(4.0), "4", None])
def test_site_correlators_reject_non_integer_chain_length(n_sites):
    # site N closes by vec A only when m == N: one_point(ts, SIGMA_Z, 4, 4.5)
    # closed by the bulk E_A|I> and returned 0.4832, against 0.3947 at N = 4
    ts = build_transfer(gates.random_gate(3), ChainSpec(2, 0.6, 0.8j))
    with pytest.raises(InputError, match="chain length must be an integer"):
        co.one_point(ts, SIGMA_Z, 4, n_sites)
    with pytest.raises(InputError, match="chain length must be an integer"):
        co.two_point(ts, SIGMA_Z, 1, 4, n_sites)
    assert co.one_point(ts, SIGMA_Z, 4, np.int64(4)) == co.one_point(ts, SIGMA_Z, 4, 4)
    assert co.two_point(ts, SIGMA_Z, 1, 4, np.int64(4)) == co.two_point(ts, SIGMA_Z, 1, 4, 4)


def test_collective_sums_take_numpy_integer_chain_length():
    ts = build_transfer(gates.random_gate(5), ChainSpec(4))
    assert co.collective_mean(ts, SIGMA_Z, np.int64(10)) == co.collective_mean(ts, SIGMA_Z, 10)
    assert (co.additive_variance_exact(ts, SIGMA_Z, np.int64(10))
            == co.additive_variance_exact(ts, SIGMA_Z, 10))


# ---------------------------------------------------------------------------
# per-transfer-set memo
# ---------------------------------------------------------------------------

def test_memoized_calls_equal_fresh_transfer_sets():
    # interleaved observables on one transfer set against a new set per call
    gate, chain = gates.random_gate(11), ChainSpec(2, 0.6, 0.8j)
    ts = build_transfer(gate, chain)

    def fresh():
        return build_transfer(gate, chain)

    obs_t = LocalObservable.from_bloch([1.0, -2.0, 0.5])
    for n in (2, 3, 17, 1000, 20100):
        for obs in (SIGMA_Z, obs_t, SIGMA_Z):
            assert co.collective_mean(ts, obs, n) == co.collective_mean(fresh(), obs, n)
            assert (co.additive_variance_exact(ts, obs, n)
                    == co.additive_variance_exact(fresh(), obs, n))
            m = min(n, 5)
            assert co.one_point(ts, obs, m, n) == co.one_point(fresh(), obs, m, n)
            assert co.two_point(ts, obs, 1, m, n) == co.two_point(fresh(), obs, 1, m, n)
    assert len(ts._memo) <= transfer.MEMO_ENTRIES


def test_memo_entries_are_read_only_and_keyed_by_observable():
    ts = build_transfer(gates.squeezing_gate(0.7), ChainSpec(2))
    obs_t = LocalObservable.from_bloch([1.0, 1.0, 0.0])
    for obs in (SIGMA_Z, obs_t):
        co.collective_mean(ts, obs, 20000)
        co.one_point(ts, obs, 1, 5)

    def unbuilt(a):
        raise AssertionError("memo entry missing")

    for obs in (SIGMA_Z, obs_t):
        entry = ts.memoized(obs.matrix, unbuilt)
        cols, ladder, mu, norm, floor = entry
        want = co._lift(ts, obs.matrix)
        for k in (0, 2, 3, 4):   # all but the ladder, which has grown
            assert np.array_equal(entry[k], want[k])
        assert np.array_equal(ladder[0], want[1][0]) and len(want[1]) == 1
        assert norm == np.linalg.svd(obs.matrix, compute_uv=False)[0]
        assert len(ladder) == (20000 - 1).bit_length()
        for x in (cols, mu, norm, floor, *ladder):
            assert not x.flags.writeable
    # one_point stores nothing: the only entries are the two lifted walks
    assert set(ts._memo) == {(obs.matrix.shape, obs.matrix.tobytes())
                             for obs in (SIGMA_Z, obs_t)}


def test_variance_memo_holds_the_shifted_lift(monkeypatch):
    ts = build_transfer(gates.random_gate(7), ChainSpec(2, 0.6, 0.8j))
    obs = LocalObservable.from_bloch([1.0, -2.0, 0.5])
    first = co.additive_variance_exact(ts, obs, 20000)

    def unbuilt(a):
        raise AssertionError("memo entry missing")

    entry = ts.memoized(obs.matrix, unbuilt)
    cols, ladder, mu, norm, floor = entry
    t = ladder[0]
    pi = ts.spectrum.projector
    assert mu == (ts.vrow @ pi @ ts.dressed(obs.matrix) @ transfer.VEC_IDENTITY).real
    shifted = obs.matrix - mu * np.eye(2)
    e, ea = ts.e, ts.dressed
    zero = np.zeros((4, 4))
    assert np.array_equal(t, np.block([[e, ea(shifted), ea(shifted @ shifted)],
                                       [zero, e, ea(2.0 * shifted)], [zero, zero, e]]))
    assert np.array_equal(cols[:, 0], np.concatenate([shifted.ravel(),
                                                      transfer.VEC_IDENTITY, np.zeros(4)]))
    assert np.array_equal(cols[:, 1], np.concatenate([(shifted @ shifted).ravel(),
                                                      2.0 * shifted.ravel(),
                                                      transfer.VEC_IDENTITY]))
    assert floor == np.linalg.svd(shifted, compute_uv=False)[0] ** 2
    assert norm == np.linalg.svd(obs.matrix, compute_uv=False)[0]
    assert len(ladder) == (20000 - 1).bit_length()
    for j, square in enumerate(ladder[1:], 1):   # each rung the square of the one before
        assert np.array_equal(square, ladder[j - 1] @ ladder[j - 1])
    for x in (cols, mu, norm, floor, *ladder):
        assert not x.flags.writeable

    # a second call on the same set and observable builds no lift, makes no
    # squaring and calls no SVD
    def forbidden(*args, **kwargs):
        raise AssertionError("rebuilt on a memoized call")

    rungs = list(ladder)
    monkeypatch.setattr(co, "_lift", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    assert co.additive_variance_exact(ts, obs, 20000) == first
    co.additive_variance_exact(ts, obs, 300)
    assert ts.memoized(obs.matrix, unbuilt) is entry
    assert len(ladder) == len(rungs) and all(x is y for x, y in zip(ladder, rungs))


def test_mean_and_variance_share_one_memo_entry(monkeypatch):
    # the mean is N mu + M1 of the variance's walk: whichever comes first
    # builds the entry, and the other reads it
    ts = build_transfer(gates.random_gate(7), ChainSpec(2, 0.6, 0.8j))
    obs = LocalObservable.from_bloch([1.0, -2.0, 0.5])
    mean = co.collective_mean(ts, obs, 1000)

    def forbidden(*args, **kwargs):
        raise AssertionError("second lift built")

    monkeypatch.setattr(co, "_lift", forbidden)
    var = co.additive_variance_exact(ts, obs, 1000)
    assert co.collective_mean(ts, obs, 1000) == mean
    assert len(ts._memo) == 1
    fresh = build_transfer(gates.random_gate(7), ChainSpec(2, 0.6, 0.8j))
    monkeypatch.undo()
    assert co.additive_variance_exact(fresh, obs, 1000) == var


def test_collective_moments_of_a_stacked_transfer_set():
    # each element of a stacked set, or of a stacked observable on it, is
    # bitwise its single-gate call; the shapes are the stack's
    chi = np.linspace(0.1, 1.4, 9)
    ts = build_transfer(gates.squeezing_gate(chi), ChainSpec(2))
    singles = [build_transfer(gates.squeezing_gate(c), ChainSpec(2)) for c in chi]
    obs = LocalObservable.from_bloch(np.stack([np.cos(chi), np.sin(chi), 0.5 + 0 * chi], -1))
    for n in (2, 100, 20000):
        for stacked, one in ((SIGMA_Z, lambda k: SIGMA_Z),
                             (obs, lambda k: LocalObservable(obs.matrix[k]))):
            mean = co.collective_mean(ts, stacked, n)
            vb = co.additive_variance_exact(ts, stacked, n)
            assert mean.shape == (9,) and vb.total.shape == (9,)
            assert vb.error_estimate.shape == (9,)
            for k, single in enumerate(singles):
                assert mean[k] == co.collective_mean(single, one(k), n)
                want = co.additive_variance_exact(single, one(k), n)
                assert vb.total[k] == want.total
                assert vb.error_estimate[k] == want.error_estimate
    for stacked_ts, stacked_obs in ((ts, SIGMA_Z), (singles[0], obs)):
        with pytest.raises(InputError, match="stack"):
            co.site_correlations(stacked_ts, stacked_obs, 5, [(1, 2)])


def test_variance_breakdown_fields():
    ts = build_transfer(gates.squeezing_gate(0.5), ChainSpec(4))
    obs = LocalObservable.from_bloch([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0])
    vb = co.additive_variance_exact(ts, obs, 200)
    asym = co.asymptotic_variance(ts, obs)
    remainder = vb.total - asym.quadratic_coeff * 200 ** 2 - asym.linear_coeff * 200
    recon = asym.quadratic_coeff * 200 ** 2 + asym.linear_coeff * 200 + remainder
    assert abs(recon - vb.total) < 1e-9
