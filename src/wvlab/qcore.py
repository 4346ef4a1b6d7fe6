"""Kets and operators over finite-dimensional complex spaces.

Everything is dense complex128 numpy underneath. Objects are immutable:
arrays are copied on construction, checked finite and correctly shaped,
and marked read-only; every operation returns a new object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError

# --- Tolerances and limits: every numerical threshold of the package ---
# The structural and norm tolerances are fixed by the type contracts,
# independent of any per-scenario tolerance.

# Largest entry of a unitarity, projector or identity-resolution residual.
STRUCT_TOL = 1e-10
# Largest |norm - 1| of a normalized state.
NORM_TOL = 1e-12
# Kets at most this long span no projector.
ZERO_KET_NORM = 1e-12
# Default per-scenario tolerance: smaller amplitudes count as zero.
DEFAULT_TOLERANCE = 1e-10
# Largest probability mass a kicked weak packet may push off its grid.
MASS_LOSS_LIMIT = 1e-6
# Ready/kicked packet overlap at or below this is not a weak coupling.
MIN_WEAK_OVERLAP = 0.9
# Largest pointer grid; each grid point costs a few floats per register.
MAX_GRID_SIZE = 100_001
# Most pointer registers one run couples: int64 click codes carry one
# bit per register.
MAX_POINTER_REGISTERS = 63
# Most amplitudes one array of a pointer run may hold, 1 GiB of complex
# numbers: a coupling split or a readout block beyond it is refused.
MAX_LIVE_AMPLITUDES = 2**26
# Weak-pointer sigma lies in [1/MAX_POINTER_SCALE, MAX_POINTER_SCALE] and
# grid_extent in (0, MAX_POINTER_SCALE], so squared positions stay finite.
MAX_POINTER_SCALE = 1e50
# Kicked and ready packets closer than this share one direction, and a
# completion of the ready packet shorter than this, relative to q * ready, is none.
WEAK_BASIS_FLOOR = 1e-8
# Click patterns at or below this probability are left out of reports.
PATTERN_FLOOR = 1e-12
# Text mode prints as 0 parts below this and, in a degenerate report, probabilities
# below its square; JSON is raw.
DISPLAY_FLOOR = 1e-12


def _frozen_array(data, shape_name: str) -> np.ndarray:
    arr = np.array(data, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{shape_name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Ket:
    """A vector of complex amplitudes, stored as a read-only 1-d array."""

    amps: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.amps, "ket")
        if arr.ndim != 1 or arr.size < 1:
            raise ContractError(f"ket needs a 1-d amplitude vector, got shape {arr.shape}")
        object.__setattr__(self, "amps", arr)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return _norm(self.amps)

    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= NORM_TOL


@dataclass(frozen=True, eq=False)
class Operator:
    """A square matrix, stored read-only."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.matrix, "operator")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ContractError(f"operator needs a square matrix, got shape {arr.shape}")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    # The checks below run with floating-point warnings off: entries
    # large enough to overflow give an infinite or NaN residual, which
    # fails the check instead of printing a warning.

    def is_unitary(self) -> bool:
        with np.errstate(all="ignore"):
            return _residual(self.matrix.conj().T @ self.matrix, np.eye(self.dim)) <= STRUCT_TOL

    def is_projector(self) -> bool:
        hermitian, idempotent = self._projector_residuals
        return hermitian <= STRUCT_TOL and idempotent <= STRUCT_TOL

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


def resolves_identity(projectors) -> bool:
    """Whether a non-empty set of same-dimension operators sums to the identity within STRUCT_TOL."""
    ops = list(projectors)
    if not ops or len({op.dim for op in ops}) > 1:
        return False
    with np.errstate(all="ignore"):
        return _residual(sum(op.matrix for op in ops), np.eye(ops[0].dim)) <= STRUCT_TOL


def basis_ket(dim: int, index: int) -> Ket:
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return Ket(amps)


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex))


def projector_from_ket(u: Ket) -> Operator:
    """Rank-1 projector |u><u| / <u|u>. Rejects zero vectors."""
    n = u.norm()
    if not ZERO_KET_NORM < n < np.inf:
        raise ContractError(f"cannot build a projector from a vector of norm {n:.6g}")
    v = u.amps / n
    return Operator(np.outer(v, v.conj()))
