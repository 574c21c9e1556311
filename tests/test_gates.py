import json

import numpy as np
import pytest

from chainsweep import gates
from chainsweep.errors import InputError

SX = gates.PAULI_X
SY = gates.PAULI_Y
SZ = gates.PAULI_Z


def expm_oracle(h: np.ndarray) -> np.ndarray:
    """exp(h) by scaling and squaring with a long Taylor tail; independent of
    the constructors under test."""
    norm = np.max(np.abs(h))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 4)
    small = h / (2 ** squarings)
    out = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, 24):
        term = term @ small / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def test_weyl_identity():
    g = gates.weyl_gate(0.0, 0.0, 0.0)
    assert np.max(np.abs(g.matrix - np.eye(4))) < 1e-15


def test_weyl_entries_at_right_angles():
    x, y, z, w = gates.weyl_params(np.pi / 2, np.pi / 2, np.pi / 2)
    assert abs(x - np.exp(-1j * np.pi / 4)) < 1e-15
    assert abs(y - (-1j) * np.exp(1j * np.pi / 4)) < 1e-15
    assert abs(z) < 1e-15 and abs(w) < 1e-15


@pytest.mark.parametrize("angles", [(0.3, 1.1, -0.4), (1.2, 0.2, 2.0), (-0.7, 0.9, 0.5)])
def test_weyl_matches_matrix_exponential(angles):
    a, b, c = angles
    h = -0.5j * (a * np.kron(SX, SX) + b * np.kron(SY, SY) + c * np.kron(SZ, SZ))
    ref = expm_oracle(h)
    assert np.max(np.abs(gates.weyl_gate(a, b, c).matrix - ref)) < 1e-12


def test_weyl_sparsity_pattern():
    g = gates.weyl_gate(0.47, 1.3, -0.9)
    zero_positions = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]
    for i, j in zero_positions:
        assert abs(g.matrix[i, j]) < 1e-14


def test_controlled_rotation_cases():
    assert np.max(np.abs(gates.controlled_rotation(0.0).matrix - np.eye(4))) < 1e-15
    flip = gates.controlled_rotation(np.pi).matrix
    assert np.allclose(flip[2:, 2:], [[0, -1], [1, 0]], atol=1e-15)
    half = gates.controlled_rotation(np.pi / 2).matrix
    c = np.cos(np.pi / 4)
    assert np.allclose(half[2:, 2:], [[c, -c], [c, c]], atol=1e-15)


def test_controlled_rotation_stack_is_bitwise_its_scalar_calls():
    angles = np.array([[np.pi, np.pi - 0.1, np.pi - 0.4], [0.0, -2.2, 7.5]])
    stack = gates.controlled_rotation(angles)
    assert stack.matrix.shape == (2, 3, 4, 4) and stack.params == ()
    assert stack.family == "controlled_rotation" and not stack.matrix.flags.writeable
    for a, m in zip(angles.ravel(), stack.matrix.reshape(-1, 4, 4)):
        one = gates.controlled_rotation(float(a))
        assert np.array_equal(m, one.matrix) and one.params == (float(a),)


def test_squeezing_gate_equals_weyl():
    for chi_t in (0.0, 0.3, 1.2):
        a = gates.squeezing_gate(chi_t).matrix
        b = gates.weyl_gate(chi_t, -chi_t, 0.0).matrix
        assert np.max(np.abs(a - b)) < 1e-15


def test_squeezing_gate_bitwise_weyl_with_its_own_metadata():
    # the squeezing gate builds the Weyl matrix once and validates it once
    for chi_t in (0.02, 0.3, 0.7, 1.2, 1.5):
        g = gates.squeezing_gate(chi_t)
        assert np.array_equal(g.matrix, gates.weyl_gate(chi_t, -chi_t, 0.0).matrix)
        assert g.family == "squeezing"
        assert g.params == (chi_t,)
        assert not g.matrix.flags.writeable


def test_squeezing_gate_quarter_turn():
    x, y, z, w = gates.weyl_params(np.pi / 4, -np.pi / 4, 0.0)
    r = np.sqrt(2) / 2
    assert abs(x - r) < 1e-15 and abs(y) < 1e-15
    assert abs(z - 1.0) < 1e-15 and abs(w + 1j * r) < 1e-15


@pytest.mark.parametrize("chi_t", [0.2, 0.9])
def test_squeezing_matches_exponential(chi_t):
    h = -0.5j * chi_t * (np.kron(SX, SX) - np.kron(SY, SY))
    assert np.max(np.abs(gates.squeezing_gate(chi_t).matrix - expm_oracle(h))) < 1e-12


def test_all_constructors_unitary():
    candidates = [
        gates.weyl_gate(0.3, 1.0, -0.5),
        gates.controlled_rotation(2.2),
        gates.squeezing_gate(0.7),
        gates.macroscopic_family(0.5, 0.3, 1.1, seed=1),
        gates.conjugated_gate(gates.controlled_rotation(np.pi - 0.4),
                              gates.x_rotation(0.3), gates.x_rotation(-0.8)),
        gates.random_gate(123),
    ]
    for g in candidates:
        assert gates.unitarity_deviation(g.matrix) < 1e-12


@pytest.mark.parametrize("build", [
    lambda: gates.weyl_gate(0.7, np.inf, 0.0),
    lambda: gates.weyl_gate(1e308, 1e308, 0.0),   # finite angles, overflowing sum
    lambda: gates.weyl_gate(0.7, 0.1, np.nan),
    lambda: gates.squeezing_gate(np.inf),
    lambda: gates.squeezing_gate(np.array([0.5, 1e308])),
    lambda: gates.controlled_rotation(np.inf),
    lambda: gates.controlled_rotation(np.array([np.pi, np.nan])),
    lambda: gates.macroscopic_family(0.3, np.inf, 2.0),
])
def test_non_finite_angles_are_refused_without_warnings(build):
    # the suite turns a RuntimeWarning into an error
    with pytest.raises(InputError, match="non-finite"):
        build()


def test_macroscopic_family_rejects_bad_probability():
    with pytest.raises(InputError):
        gates.macroscopic_family(1.5, 0.1, 0.2, seed=0)


@pytest.mark.parametrize("seed", [2.7, float("nan"), float("inf"), -1])
def test_macroscopic_family_rejects_bad_seed(seed):
    # the CLI and gate files pass the seed as a float: 2.7 used to run as
    # seed 2, and NaN or inf escaped as a ValueError or OverflowError
    with pytest.raises(InputError, match="seed must be"):
        gates.macroscopic_family(0.3, 1.0, 2.0, seed=seed)
    with pytest.raises(InputError, match="seed must be"):
        gates.gate_from_family("macroscopic_family", [0.3, 1.0, 2.0, seed])


def test_macroscopic_family_takes_an_integral_float_seed():
    want = gates.macroscopic_family(0.3, 1.0, 2.0, seed=2)
    for seed in (2.0, np.float64(2.0), np.int64(2)):
        got = gates.macroscopic_family(0.3, 1.0, 2.0, seed=seed)
        assert np.array_equal(got.matrix, want.matrix) and got.params == want.params
    got = gates.gate_from_family("macroscopic_family", [0.3, 1.0, 2.0, 2.0])
    assert np.array_equal(got.matrix, want.matrix)


def test_macroscopic_family_fixed_columns_orthonormal():
    g = gates.macroscopic_family(0.37, 0.6, 1.4, seed=9)
    cols = g.matrix[:, [0, 2]]
    assert np.max(np.abs(cols.conj().T @ cols - np.eye(2))) < 1e-12


def test_macroscopic_family_deterministic():
    a = gates.macroscopic_family(0.4, 0.2, 0.9, seed=7).matrix
    b = gates.macroscopic_family(0.4, 0.2, 0.9, seed=7).matrix
    assert np.array_equal(a, b)


def test_conjugated_identity_rotations_noop():
    g = gates.weyl_gate(0.4, 0.8, 0.1)
    gc = gates.conjugated_gate(g, np.eye(2), np.eye(2))
    assert np.max(np.abs(gc.matrix - g.matrix)) < 1e-15


def test_conjugated_rejects_non_unitary():
    with pytest.raises(InputError):
        gates.conjugated_gate(gates.identity_gate(), np.eye(2) * 2.0, np.eye(2))


def test_conjugated_z_rotation_preserves_transfer_spectrum():
    # diagonal rotations commute with the fresh |0> inputs, so the transfer
    # matrix is similarity-transformed and its spectrum survives
    from chainsweep import densemat as dm, transfer
    rz = np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)])
    g = gates.weyl_gate(0.0, np.pi / 2, np.pi / 2)
    gc = gates.conjugated_gate(g, rz, rz)
    before = dm.eig_general(transfer.transfer_E(transfer.extract_kraus(g))).values
    after = dm.eig_general(transfer.transfer_E(transfer.extract_kraus(gc))).values
    from itertools import permutations
    dev = min(max(abs(x - y) for x, y in zip(before, perm))
              for perm in permutations(after))
    assert dev < 1e-10


def test_random_gate_deterministic_and_unitary():
    a = gates.random_gate(42).matrix
    b = gates.random_gate(42).matrix
    assert np.array_equal(a, b)
    for seed in range(10):
        assert gates.unitarity_deviation(gates.random_gate(seed).matrix) < 1e-12


def test_gate_rejects_non_unitary_matrix():
    with pytest.raises(InputError):
        gates.Gate(np.eye(4) * 1.001)


def test_stacked_gate_rejects_one_non_unitary_element_with_its_deviation():
    stack = np.stack([gates.random_gate(s).matrix for s in range(4)])
    stack[2, 1, 1] += 3e-9
    dev = gates.unitarity_deviation(stack[2])
    assert 1e-9 < dev < 1e-8
    with pytest.raises(InputError, match=f"max deviation {dev:.3e}"):
        gates.Gate(stack)
    with pytest.raises(InputError, match="4x4"):
        gates.Gate(stack[..., :3])


def test_squeezing_gate_metadata_scalar_and_stacked():
    assert gates.squeezing_gate(0.4).params == (0.4,)
    stacked = gates.squeezing_gate(np.array([0.4, 0.9]))
    assert stacked.params == () and stacked.family == "squeezing"
    assert stacked.matrix.shape == (2, 4, 4) and not stacked.matrix.flags.writeable
    x, y, z, w = gates.weyl_params(np.array([0.4, 0.9]), np.array([-0.4, -0.9]), 0.0)
    assert np.array_equal(stacked.matrix[:, [0, 1, 1, 0], [0, 1, 2, 3]],
                          np.stack([x, z, y, w], axis=-1))


def _stacked_squeezing():
    return gates.squeezing_gate(np.array([0.3, 0.7, 1.1]))


def test_save_gate_rejects_a_stack(tmp_path):
    path = tmp_path / "stack.json"
    with pytest.raises(InputError, match="stack"):
        gates.save_gate(_stacked_squeezing(), path)
    assert not path.exists()


def test_functions_of_one_gate_reject_a_stack():
    from chainsweep import macroscopicity, oracle
    from chainsweep.transfer import SIGMA_Z, ChainSpec
    stack = _stacked_squeezing()
    calls = [lambda: macroscopicity.neff(stack, ChainSpec(4), [0.0, 0.0, 1.0]),
             lambda: macroscopicity.neff_optimize(stack, ChainSpec(4)),
             lambda: macroscopicity.classify_macroscopic(stack),
             lambda: oracle.sweep(stack, ChainSpec(4))]
    for call in calls:
        with pytest.raises(InputError, match="stack"):
            call()


def test_conjugated_gate_conjugates_each_element_of_a_stack():
    r1, r2 = gates.x_rotation(0.3), gates.x_rotation(-0.8)
    stack = _stacked_squeezing()
    out = gates.conjugated_gate(stack, r1, r2)
    assert out.matrix.shape == (3, 4, 4) and out.params == ()
    for chi_t, m in zip((0.3, 0.7, 1.1), out.matrix):
        assert np.array_equal(m, gates.conjugated_gate(gates.squeezing_gate(chi_t), r1, r2).matrix)


def test_gate_file_roundtrip_family(tmp_path):
    path = tmp_path / "gate.json"
    g = gates.weyl_gate(0.3, 0.6, 0.9)
    gates.save_gate(g, path)
    loaded = gates.load_gate(path)
    assert loaded.family == "weyl"
    assert np.max(np.abs(loaded.matrix - g.matrix)) < 1e-15


def test_gate_file_roundtrip_matrix(tmp_path):
    # json.dump writes each float's shortest repr, so the round trip is exact
    path = tmp_path / "gate.json"
    for seed in range(12):
        g = gates.random_gate(seed)
        gates.save_gate(g, path)
        assert np.array_equal(gates.load_gate(path).matrix, g.matrix)


def test_gate_file_rejects_non_unitary_with_deviation(tmp_path):
    path = tmp_path / "bad.json"
    payload = {"matrix": [[[1.1 if i == j else 0.0, 0.0] for j in range(4)]
                          for i in range(4)]}
    path.write_text(json.dumps(payload))
    with pytest.raises(InputError, match="deviation"):
        gates.load_gate(path)


def test_gate_file_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all")
    with pytest.raises(InputError):
        gates.load_gate(path)


def test_gate_file_loosened_unitarity_tolerance(tmp_path):
    # a matrix 1e-9 off unitary is rejected by default but loadable with an
    # explicitly loosened tolerance
    path = tmp_path / "dirty.json"
    m = gates.random_gate(3).matrix.copy()
    m[0, 0] += 1e-9
    gates.save_gate(gates.Gate(m, tol=1e-6), path)
    with pytest.raises(InputError):
        gates.load_gate(path)
    loaded = gates.load_gate(path, unitarity_tol=1e-6)
    assert np.max(np.abs(loaded.matrix - m)) < 1e-15
