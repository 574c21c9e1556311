import numpy as np
import pytest

from chainsweep import gates, oracle
from chainsweep.errors import InputError
from chainsweep.transfer import ChainSpec, LocalObservable, SIGMA_X, SIGMA_Z


def test_identity_sweep_keeps_initial_state():
    chain = ChainSpec(5, 0.6, 0.8j)
    state = oracle.sweep(gates.identity_gate(), chain)
    expected = np.zeros(32, dtype=complex)
    expected[0] = 0.6
    expected[16] = 0.8j
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-15


def test_cnot_sweep_builds_ghz():
    state = oracle.sweep(gates.controlled_rotation(np.pi), ChainSpec.plus_state(3))
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = 1 / np.sqrt(2)
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


def test_sweep_norm_preserved():
    for seed in range(5):
        state = oracle.sweep(gates.random_gate(seed), ChainSpec(9, 0.28, 0.96))
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12


def test_sweep_locality_prefix():
    # after k bond gates only sites 1..k+1 can differ from |0>
    g = gates.random_gate(8)
    chain = ChainSpec(8)
    for k in range(0, 8):
        state = oracle.sweep(g, chain, upto=k)
        amps = state.amplitudes.reshape([2] * 8)
        touched = k + 1
        for site in range(touched, 8):
            sl = [slice(None)] * 8
            sl[site] = 1
            assert np.max(np.abs(amps[tuple(sl)])) == 0.0


@pytest.mark.parametrize("n", [2, 7, 12])
def test_sweep_equals_bond_by_bond_states(n):
    gate, chain = gates.random_gate(n), ChainSpec(n, 0.6, 0.8j)
    amps = oracle.initial_state(chain).amplitudes
    for m in range(1, n):
        amps = oracle._apply_local(amps, n, gate.matrix, m)
        assert np.array_equal(oracle.sweep(gate, chain, upto=m).amplitudes, amps)


def test_sweep_cap_rejection_mentions_memory():
    with pytest.raises(InputError, match="MB"):
        oracle.sweep(gates.identity_gate(), ChainSpec(18))


@pytest.mark.parametrize("n", [17, 1030, 1500, 10 ** 6])
def test_sweep_cap_rejection_never_overflows(n):
    # 2^N x 16 B leaves the float range from N = 1030 on
    with pytest.raises(InputError, match=rf"N = {n} exceeds .* MB"):
        oracle.sweep(gates.identity_gate(), ChainSpec(n))


def test_local_kernel_is_the_bond_einsum_for_a_gate():
    # a 4x4 gate on sites (m, m+1) is the einsum over the (2^(m-1), 4,
    # 2^(N-m-1)) view of the amplitudes that sweep used for bonds
    n, u = 6, gates.random_gate(3).matrix
    amps = oracle.sweep(gates.random_gate(4), ChainSpec(n, 0.6, 0.8j)).amplitudes
    for m in range(1, n):
        psi = amps.reshape(2 ** (m - 1), 4, 2 ** (n - m - 1))
        want = np.einsum("ij,ajb->aib", u, psi).reshape(-1)
        assert np.array_equal(oracle._apply_local(amps, n, u, m), want)


def test_ghz_expectations():
    state = oracle.sweep(gates.controlled_rotation(np.pi), ChainSpec.plus_state(3))
    assert abs(oracle.expect_local(state, SIGMA_Z, 2)) < 1e-12
    assert abs(oracle.expect_pair(state, SIGMA_Z, 1, 3) - 1.0) < 1e-12
    assert abs(oracle.collective_variance(state, SIGMA_Z) - 9.0) < 1e-12


def test_initial_product_reduced_density():
    state = oracle.sweep(gates.identity_gate(), ChainSpec(4))
    for m in range(1, 5):
        rho = oracle.reduced_density(state, m)
        assert np.max(np.abs(rho - np.array([[1, 0], [0, 0]]))) < 1e-15


def test_reduced_density_trace_and_hermiticity():
    state = oracle.sweep(gates.random_gate(4), ChainSpec(7, 0.6, 0.8))
    for m in range(1, 8):
        rho = oracle.reduced_density(state, m)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_expectation_index_validation():
    state = oracle.sweep(gates.identity_gate(), ChainSpec(4))
    with pytest.raises(InputError):
        oracle.expect_local(state, SIGMA_Z, 0)
    with pytest.raises(InputError):
        oracle.expect_pair(state, SIGMA_Z, 2, 2)


def test_plus_state_transverse_mean():
    state = oracle.sweep(gates.identity_gate(), ChainSpec.plus_state(4))
    assert abs(oracle.expect_local(state, SIGMA_X, 1) - 1.0) < 1e-12
    assert abs(oracle.expect_local(state, SIGMA_X, 2)) < 1e-12


def test_state_vector_validates_norm():
    with pytest.raises(InputError):
        oracle.StateVector(2, np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(InputError, match="not normalized"):
        oracle.StateVector(2, np.array([np.nan, 0.0, 0.0, 0.0]))


FAMILY_GATES = [gates.identity_gate(), gates.controlled_rotation(np.pi),
                gates.controlled_rotation(np.pi - 0.3), gates.squeezing_gate(0.5),
                gates.weyl_gate(0.7, np.pi / 2, np.pi / 2),
                gates.macroscopic_family(0.3, 1.0, 2.0, seed=1)]
TABLE_GATES = [gates.random_gate(seed) for seed in range(20)] + FAMILY_GATES


def _random_case(rng, n):
    direction = rng.standard_normal(3)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c /= np.linalg.norm(c)
    return LocalObservable.from_bloch(direction), ChainSpec(n, c[0], c[1])


def _close(got, want):
    return abs(got - want) <= 64 * np.finfo(float).eps * max(1.0, abs(want))


def _two_application_values(state, obs):
    """The formulas the site table replaced: A applied once per one-point
    value and twice per pair, and a running sum over the sites."""
    amps, n, a = state.amplitudes, state.n, obs.matrix
    one = {m: complex(amps.conj() @ oracle._apply_local(amps, n, a, m)).real
           for m in range(1, n + 1)}
    two = {(m, k): complex(amps.conj() @ oracle._apply_local(
        oracle._apply_local(amps, n, a, k), n, a, m)).real
        for m in range(1, n + 1) for k in range(m + 1, n + 1)}
    acc = np.zeros_like(amps)
    for m in range(1, n + 1):
        acc += oracle._apply_local(amps, n, a, m)
    mean = complex(amps.conj() @ acc).real
    return one, two, mean, float(np.real(acc.conj() @ acc)) - mean ** 2


@pytest.mark.parametrize("gate_index", range(len(TABLE_GATES)))
def test_site_table_matches_two_application_formulas(gate_index):
    rng = np.random.default_rng(500 + gate_index)
    for n in range(2, 13):
        obs, chain = _random_case(rng, n)
        state = oracle.sweep(TABLE_GATES[gate_index], chain)
        one, two, mean, var = _two_application_values(state, obs)
        assert all(_close(oracle.expect_local(state, obs, m), v) for m, v in one.items())
        assert all(_close(oracle.expect_pair(state, obs, m, k), v)
                   for (m, k), v in two.items())
        assert all(_close(oracle.expect_pair(state, obs, k, m), v)
                   for (m, k), v in two.items())
        # the collective values add the rows in the loop's order: bitwise equal
        assert oracle.collective_mean(state, obs) == mean
        assert oracle.collective_variance(state, obs) == var


def test_site_table_interleaved_observables():
    state = oracle.sweep(gates.random_gate(3), ChainSpec(7, 0.6, 0.8j))
    first, second = SIGMA_Z, LocalObservable.from_bloch([1.0, 2.0, -0.5])
    want = [_two_application_values(state, obs) for obs in (first, second)]
    for obs, (one, two, mean, var) in zip((first, second, first), want + want[:1]):
        assert all(_close(oracle.expect_local(state, obs, m), v) for m, v in one.items())
        assert all(_close(oracle.expect_pair(state, obs, m, k), v)
                   for (m, k), v in two.items())
        assert oracle.collective_mean(state, obs) == mean
        assert oracle.collective_variance(state, obs) == var


def test_state_vector_freezes_a_private_copy():
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0
    state = oracle.StateVector(3, amps)
    assert not state.amplitudes.flags.writeable
    assert amps.flags.writeable
    amps[0], amps[1] = 0.0, 1.0   # the state and its site table do not follow
    assert oracle.expect_local(state, SIGMA_Z, 3) == 1.0
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0
