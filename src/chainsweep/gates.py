"""Two-qubit gate constructors, validation, and gate-file I/O.

All gates are 4x4 unitaries in the basis |00>, |01>, |10>, |11>, with the
first tensor factor the left/control qubit of each chain bond.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import densemat as dm
from .errors import InputError

UNITARITY_TOL = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

FAMILIES = ("weyl", "controlled_rotation", "squeezing", "macroscopic_family",
            "conjugated", "custom")


@dataclass(frozen=True)
class Gate:
    """A validated two-qubit unitary with its construction metadata, or a stack
    of them on leading batch axes, validated in one pass (a stack's params: ()).

    ``tol`` is the unitarity-validation tolerance; every in-package
    constructor uses the 1e-12 default, a looser value can be passed
    explicitly when accepting matrices from outside.
    """

    matrix: np.ndarray
    family: str = "custom"
    params: tuple[float, ...] = field(default_factory=tuple)
    tol: float = UNITARITY_TOL

    def __post_init__(self):
        m = dm.as_matrix(self.matrix, stacked=True).copy()   # frozen below; the caller's stays writable
        if m.shape[-2:] != (4, 4):
            raise InputError(f"gate must be 4x4, got {m.shape}")
        dev = unitarity_deviation(m)
        if not dev <= self.tol:   # NaN too
            raise InputError(f"gate is not unitary: max deviation {dev:.3e}")
        if self.family not in FAMILIES:
            raise InputError(f"unknown gate family {self.family!r}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))


def unitarity_deviation(m: np.ndarray) -> float:
    m = dm.as_matrix(m, stacked=True)
    with np.errstate(over="ignore", invalid="ignore"):   # huge entries: an inf or NaN deviation
        return dm.max_abs(np.swapaxes(m.conj(), -1, -2) @ m - np.eye(m.shape[-1]))


def single_gate(gate: Gate) -> Gate:
    """``gate`` itself; a stack raises, for functions of one gate."""
    if gate.matrix.ndim > 2:
        raise InputError(f"expected one gate, got a stack of shape {gate.matrix.shape[:-2]}")
    return gate


def weyl_params(alpha, beta, gamma) -> tuple:
    """The four matrix entries (x, y, z, w) generated by the XX+YY+ZZ
    interaction angles, complex numbers or arrays that broadcast over array
    angles; exposed separately so tests can pin them."""
    x = np.exp(-0.5j * gamma) * np.cos(0.5 * (alpha - beta))
    y = -1j * np.exp(0.5j * gamma) * np.sin(0.5 * (alpha + beta))
    z = np.exp(0.5j * gamma) * np.cos(0.5 * (alpha + beta))
    w = -1j * np.exp(-0.5j * gamma) * np.sin(0.5 * (alpha - beta))
    return tuple(dm.unbatch(v) for v in (x, y, z, w))


def _weyl_matrix(alpha, beta, gamma) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):   # Gate refuses non-finite entries
        x, y, z, w = weyl_params(alpha, beta, gamma)
    m = np.zeros(np.shape(x) + (4, 4), dtype=np.complex128)
    m[..., 0, 0] = m[..., 3, 3] = x
    m[..., 1, 1] = m[..., 2, 2] = z
    m[..., 1, 2] = m[..., 2, 1] = y
    m[..., 0, 3] = m[..., 3, 0] = w
    return m


def weyl_gate(alpha: float, beta: float, gamma: float) -> Gate:
    """exp(-i/2 (alpha XX + beta YY + gamma ZZ)) on a qubit pair."""
    return Gate(_weyl_matrix(alpha, beta, gamma), family="weyl", params=(alpha, beta, gamma))


def controlled_rotation(a) -> Gate:
    """|0><0| x I + |1><1| x R(a) with R a real rotation by angle a/2; an
    array of a gives one stacked Gate, each element bitwise its scalar call."""
    with np.errstate(invalid="ignore"):   # Gate refuses non-finite entries
        c, s = np.cos(0.5 * a), np.sin(0.5 * a)
    m = np.zeros(np.shape(c) + (4, 4), dtype=np.complex128)
    m[..., 0, 0] = m[..., 1, 1] = 1.0
    m[..., 2, 2] = m[..., 3, 3] = c
    m[..., 2, 3], m[..., 3, 2] = -s, s
    return Gate(m, family="controlled_rotation", params=(a,) if np.ndim(a) == 0 else ())


def squeezing_gate(chi_t) -> Gate:
    """exp(-i t H) for H = (chi/2)(XX - YY): the two-axis-twisting bond gate.

    Identical matrix to weyl_gate(chi_t, -chi_t, 0), validated once; an array
    of chi_t gives one stacked Gate, each element bitwise its scalar call."""
    return Gate(_weyl_matrix(chi_t, -chi_t, 0.0), family="squeezing",
                params=(chi_t,) if np.ndim(chi_t) == 0 else ())


def x_rotation(theta: float) -> np.ndarray:
    """exp(i theta X) = [[cos, i sin], [i sin, cos]]."""
    with np.errstate(invalid="ignore"):   # as_matrix refuses non-finite entries downstream
        c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=np.complex128)


def macroscopic_family(p: float, theta: float, theta_p: float, seed: int = 0) -> Gate:
    """A gate whose extracted Kraus pair is sqrt(1-p) and sqrt(p) times two
    x-axis rotations (angles theta, theta_p), the structure that makes the
    transfer spectrum doubly degenerate at 1.

    Columns 0 and 2 of the unitary are fixed by the Kraus pair; the free
    columns are filled by seeded orthonormal completion.
    """
    if not 0.0 <= p <= 1.0:
        raise InputError(f"probability p must lie in [0, 1], got {p}")
    if not float(seed).is_integer():   # NaN and inf too
        raise InputError(f"seed must be an integer, got {seed}")
    seed = int(seed)
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    v0 = np.sqrt(1.0 - p) * x_rotation(theta)
    v1 = np.sqrt(p) * x_rotation(theta_p)
    # Column (j, 0) of U holds row j of the Kraus matrices: U[2i+k, 2j] = (V_i)[j, k].
    col0 = np.array([v0[0, 0], v0[0, 1], v1[0, 0], v1[0, 1]])
    col2 = np.array([v0[1, 0], v0[1, 1], v1[1, 0], v1[1, 1]])
    fixed = np.column_stack([col0, col2])
    completed = dm.orthonormal_complete(fixed, seed=seed)
    return Gate(completed[:, [0, 2, 1, 3]], family="macroscopic_family",
                params=(p, theta, theta_p, seed))


def conjugated_gate(g: Gate, r1: np.ndarray, r2: np.ndarray) -> Gate:
    """(r1 x r2) g (r1† x r2†) for single-qubit unitaries r1, r2."""
    r1, r2 = dm.as_matrix(r1), dm.as_matrix(r2)
    for r in (r1, r2):
        if r.shape != (2, 2):
            raise InputError("rotations must be 2x2")
        dev = unitarity_deviation(r)
        if not dev <= UNITARITY_TOL:   # NaN too
            raise InputError(f"rotation is not unitary: max deviation {dev:.3e}")
    outer = np.kron(r1, r2)
    m = outer @ g.matrix @ outer.conj().T
    return Gate(m, family="conjugated", params=g.params)


def random_gate(seed: int) -> Gate:
    """Haar-like unitary from a seeded complex Gaussian, deterministic per seed."""
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return Gate(dm.mgs_orthonormalize(raw), family="custom", params=(seed,))


def identity_gate() -> Gate:
    return Gate(np.eye(4, dtype=np.complex128), family="custom")


_FAMILY_BUILDERS = {
    "weyl": (3, lambda p: weyl_gate(*p)),
    "controlled_rotation": (1, lambda p: controlled_rotation(*p)),
    "squeezing": (1, lambda p: squeezing_gate(*p)),
    "macroscopic_family": (4, lambda p: macroscopic_family(*p)),
}


def gate_from_family(family: str, params) -> Gate:
    if not isinstance(family, str) or family not in _FAMILY_BUILDERS:
        raise InputError(f"cannot build family {family!r} from parameters; "
                         f"choose one of {sorted(_FAMILY_BUILDERS)}")
    want, builder = _FAMILY_BUILDERS[family]
    params = list(params)
    if len(params) != want:
        raise InputError(f"family {family!r} takes {want} parameters, got {len(params)}")
    return builder(params)


def save_gate(gate: Gate, path) -> None:
    """Write a gate file: either the family+params form or the explicit
    row-major [re, im] matrix form."""
    if single_gate(gate).family in _FAMILY_BUILDERS:
        payload = {"family": gate.family, "params": list(gate.params)}
    else:
        payload = {"matrix": [[[float(z.real), float(z.imag)] for z in row]
                              for row in np.asarray(gate.matrix)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _json_real(x) -> bool:
    """A JSON number that is a finite float: no bool, NaN, infinity or
    integer past the float range."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def load_gate(path, unitarity_tol: float = UNITARITY_TOL) -> Gate:
    """Read a gate file: a "family" with "params" of finite real numbers, or a
    "matrix" of rows whose every entry is an [re, im] pair of finite real
    numbers, in 4 rows of 4; Gate validates a matrix at ``unitarity_tol``,
    which rejects with the offending maximum deviation in the message."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError: bad JSON or bytes that are not UTF-8
        raise InputError(f"cannot read gate file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError("gate file must hold a single JSON object")
    if "family" in payload:
        params = payload.get("params", [])
        if not isinstance(params, list) or not all(_json_real(p) for p in params):
            raise InputError(f"gate file params must be finite real numbers, got {params!r}")
        return gate_from_family(payload["family"], params)
    if "matrix" in payload:
        rows = payload["matrix"]
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
                and all(isinstance(entry, list) and len(entry) == 2 and _json_real(entry[0])
                        and _json_real(entry[1]) for row in rows for entry in row)):
            raise InputError("malformed matrix entries in gate file: each entry must be "
                             "an [re, im] pair of finite real numbers")
        if len(rows) != 4 or any(len(row) != 4 for row in rows):
            raise InputError(f"gate matrix must be 4 rows of 4 entries, got {len(rows)} "
                             f"rows of lengths {[len(row) for row in rows]}")
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)
        return Gate(m, family="custom", tol=unitarity_tol)
    raise InputError("gate file needs a 'family' or 'matrix' key")
