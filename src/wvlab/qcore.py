"""Labeled kets and operators over finite-dimensional complex spaces.

Everything is dense complex128 numpy underneath. Objects are immutable:
arrays are copied on construction and marked read-only, and every
operation returns a new object. Basis labels ride along so that tensor
products of subsystems stay self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, DimensionMismatchError, KindMismatchError

LABEL_SEP = "|"

# --- Tolerances and limits: every numerical threshold of the package ---
# The structural and norm tolerances are fixed by the type contracts,
# independent of any per-scenario tolerance.

# Largest entry of a unitarity, projector or identity-resolution residual.
STRUCT_TOL = 1e-10
# Largest |norm - 1| of a normalized state.
NORM_TOL = 1e-12
# Kets at most this long span no projector.
ZERO_KET_NORM = 1e-12
# Kets at most this long cannot be normalized.
NORMALIZE_FLOOR = 1e-14
# Default per-scenario tolerance: smaller amplitudes count as zero.
DEFAULT_TOLERANCE = 1e-10
# Largest probability mass a kicked weak packet may push off its grid.
MASS_LOSS_LIMIT = 1e-6
# Ready/kicked packet overlap at or below this is not a weak coupling.
MIN_WEAK_OVERLAP = 0.9
# Largest pointer grid; each grid point costs a few floats per register.
MAX_GRID_SIZE = 100_001
# Weak-pointer sigma lies in [1/MAX_POINTER_SCALE, MAX_POINTER_SCALE] and
# grid_extent in (0, MAX_POINTER_SCALE], so squared positions stay finite.
MAX_POINTER_SCALE = 1e50
# Kicked and ready packets closer than this share one direction.
WEAK_BASIS_FLOOR = 1e-8
# Largest |norm - 1| of a pointer state handed to readout.
READOUT_NORM_TOL = 1e-9
# Click patterns at or below this probability are left out of reports.
PATTERN_FLOOR = 1e-12
# Text mode only: parts below this print as 0. JSON keeps raw values.
DISPLAY_FLOOR = 1e-12


def _frozen_array(data, shape_name: str) -> np.ndarray:
    arr = np.array(data, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{shape_name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _auto_labels(dim: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(dim))


def _check_labels(labels: tuple[str, ...], dim: int) -> None:
    if len(labels) != dim:
        raise ContractError(f"{len(labels)} labels for dimension {dim}")
    if len(set(labels)) != len(labels):
        raise ContractError(f"duplicate basis labels in {labels!r}")


@dataclass(frozen=True, eq=False)
class Ket:
    """A vector with named basis directions.

    Attributes:
        amps: complex amplitudes, read-only 1-d array.
        labels: one name per basis direction, unique.
    """

    amps: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        arr = _frozen_array(self.amps, "ket")
        if arr.ndim != 1 or arr.size < 1:
            raise ContractError(f"ket needs a 1-d amplitude vector, got shape {arr.shape}")
        object.__setattr__(self, "amps", arr)
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        _check_labels(self.labels, arr.size)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return _norm(self.amps)

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return is_normalized(self.amps, tol)

    def normalized(self) -> Ket:
        n = self.norm()
        if n <= NORMALIZE_FLOOR:
            raise ContractError("cannot normalize a zero ket")
        return Ket(self.amps / n, self.labels)


@dataclass(frozen=True, eq=False)
class Operator:
    """A square matrix acting on a labeled space."""

    matrix: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        arr = _frozen_array(self.matrix, "operator")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ContractError(f"operator needs a square matrix, got shape {arr.shape}")
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        _check_labels(self.labels, arr.shape[0])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def adjoint(self) -> Operator:
        return Operator(self.matrix.conj().T, self.labels)

    # The checks below run with floating-point warnings off: entries
    # large enough to overflow give an infinite or NaN residual, which
    # fails the check instead of printing a warning.

    def is_unitary(self, tol: float = STRUCT_TOL) -> bool:
        with np.errstate(all="ignore"):
            return _residual(self.matrix.conj().T @ self.matrix, np.eye(self.dim)) <= tol

    def is_projector(self, tol: float = STRUCT_TOL) -> bool:
        hermitian, idempotent = self._projector_residuals
        return hermitian <= tol and idempotent <= tol

    @cached_property
    def _projector_residuals(self) -> tuple[float, float]:
        """Distances from adjoint and square, once per read-only matrix."""
        m = self.matrix
        with np.errstate(all="ignore"):
            return _residual(m, m.conj().T), _residual(m @ m, m)


def _residual(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _norm(amps: np.ndarray) -> float:
    with np.errstate(all="ignore"):
        return float(np.linalg.norm(amps))


def is_normalized(amps: np.ndarray, tol: float = NORM_TOL) -> bool:
    """Whether an amplitude vector has unit norm within tol."""
    return abs(_norm(amps) - 1.0) <= tol


def resolves_identity(projectors) -> bool:
    """Whether a non-empty set of operators sums to the identity within STRUCT_TOL."""
    ops = list(projectors)
    if not ops:
        return False
    with np.errstate(all="ignore"):
        return _residual(sum(op.matrix for op in ops), np.eye(ops[0].dim)) <= STRUCT_TOL


def ket(amps, labels=None) -> Ket:
    """Build a Ket; labels default to "0", "1", ..."""
    arr = np.atleast_1d(np.asarray(amps, dtype=complex))
    return Ket(arr, tuple(labels) if labels is not None else _auto_labels(arr.size))


def basis_ket(dim: int, index: int, labels=None) -> Ket:
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return ket(amps, labels)


def operator(matrix, labels=None) -> Operator:
    arr = np.asarray(matrix, dtype=complex)
    n = arr.shape[0] if arr.ndim == 2 else 0
    return Operator(arr, tuple(labels) if labels is not None else _auto_labels(n))


def identity(dim: int, labels=None) -> Operator:
    return operator(np.eye(dim, dtype=complex), labels)


def _join_labels(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f"{la}{LABEL_SEP}{lb}" for la in a for lb in b)


def tensor(a, b):
    """Tensor product of two kets or two operators.

    Labels of the product are the cross-joined factor labels. Mixing a
    ket with an operator raises KindMismatchError.
    """
    if isinstance(a, Ket) and isinstance(b, Ket):
        return Ket(np.kron(a.amps, b.amps), _join_labels(a.labels, b.labels))
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(np.kron(a.matrix, b.matrix), _join_labels(a.labels, b.labels))
    raise KindMismatchError(
        f"tensor needs two kets or two operators, got {type(a).__name__} and {type(b).__name__}"
    )


def inner(bra: Ket, kt: Ket) -> complex:
    """Inner product <bra|kt>, conjugating the first argument."""
    if not isinstance(bra, Ket) or not isinstance(kt, Ket):
        raise KindMismatchError("inner product is defined between two kets")
    if bra.dim != kt.dim:
        raise DimensionMismatchError(f"inner product between dim {bra.dim} and dim {kt.dim}")
    return complex(np.vdot(bra.amps, kt.amps))


def apply(op: Operator, kt: Ket) -> Ket:
    """Apply an operator to a ket, keeping the ket's labels."""
    if not isinstance(op, Operator) or not isinstance(kt, Ket):
        raise KindMismatchError("apply takes an operator and a ket, in that order")
    if op.dim != kt.dim:
        raise DimensionMismatchError(f"operator dim {op.dim} applied to ket dim {kt.dim}")
    return Ket(op.matrix @ kt.amps, kt.labels)


def projector_from_ket(u: Ket) -> Operator:
    """Rank-1 projector |u><u| / <u|u>. Rejects zero vectors."""
    n = u.norm()
    if not ZERO_KET_NORM < n < np.inf:
        raise ContractError(f"cannot build a projector from a vector of norm {n:.6g}")
    v = u.amps / n
    return Operator(np.outer(v, v.conj()), u.labels)
