"""Measurement pointers and their coupling to a pre/postselected system.

Two register kinds exist. A strong register is a two-level flag: the
projected branch of the system shifts it from "ready" to an orthogonal
"shifted" state, so a later click is a certainty statement about the
branch. A weak register is a Gaussian wavepacket on a position grid
that the projected branch translates by a small g; its post-kick state
overlaps the ready state almost completely, which is what makes the
coupling gentle.

Internally a weak register occupies only the 2-dim span of its ready
and kicked wavepackets (each register is kicked at most once, which the
coupling contract enforces), so composite states stay small: system
dimension times 2 per register. Position statistics are exact: the
position operator is projected onto that span and marginal position
distributions are reconstructed on the full grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .errors import (
    SCHEMA,
    ContractError,
    DimensionMismatchError,
    GridTooSmallError,
    ScenarioError,
)
from .qcore import (
    DEFAULT_TOLERANCE,
    MASS_LOSS_LIMIT,
    MAX_GRID_SIZE,
    MAX_POINTER_SCALE,
    MIN_WEAK_OVERLAP,
    READOUT_NORM_TOL,
    WEAK_BASIS_FLOOR,
    Ket,
    Operator,
    is_normalized,
)

STRONG = "strong"
WEAK = "weak"


@dataclass(frozen=True)
class PointerSpec:
    """Declaration of one pointer: which site it probes and how.

    Attributes:
        site: label of the probed site.
        kind: "strong" or "weak".
        g: translation of the weak packet in the projected branch.
        sigma: width of |G|^2 for the weak packet.
        grid_size: odd number of grid points (weak only).
        grid_extent: grid spans +-grid_extent*sigma (weak only).
    """

    site: str
    kind: str
    g: float = 0.01
    sigma: float = 1.0
    grid_size: int = 201
    grid_extent: float = 6.0

    def __post_init__(self):
        if not isinstance(self.site, str) or not self.site:
            raise ScenarioError(SCHEMA, "pointer spec needs a site label")
        if self.kind not in (STRONG, WEAK):
            self._reject(f"kind must be 'strong' or 'weak', got {self.kind!r}")
        for name in ("g", "sigma", "grid_extent"):
            val = getattr(self, name)
            # Comparing with the largest float rejects NaN, +-Inf and
            # ints too large to convert.
            finite = isinstance(val, Real) and abs(val) <= sys.float_info.max
            if isinstance(val, bool) or not finite:
                self._reject(f"{name} must be a finite number, got {val!r}")
            object.__setattr__(self, name, float(val))
        size = self.grid_size
        if isinstance(size, bool) or not (isinstance(size, Integral) and 0 < size <= MAX_GRID_SIZE):
            self._reject(f"grid_size must be an integer in 1..{MAX_GRID_SIZE}, got {size!r}")
        object.__setattr__(self, "grid_size", int(size))
        if self.kind != WEAK:
            return
        scale = MAX_POINTER_SCALE
        if not 1.0 / scale <= self.sigma <= scale:
            self._reject(f"sigma must lie in [1/{scale:g}, {scale:g}]")
        if self.grid_size < 3 or self.grid_size % 2 == 0:
            self._reject(f"grid_size must be odd and >= 3, got {self.grid_size}")
        if not 0 < self.grid_extent <= scale:
            self._reject(f"grid_extent must be positive and at most {scale:g}")
        ratio = self.g / self.sigma
        overlap = math.exp(-ratio * ratio / 8.0)
        if overlap <= MIN_WEAK_OVERLAP:
            self._reject(
                f"ready/kicked overlap {overlap:.4f} <= {MIN_WEAK_OVERLAP}, coupling is not weak"
            )

    def _reject(self, problem: str):
        raise ScenarioError(SCHEMA, f"pointer at {self.site!r}: {problem}")


@dataclass(frozen=True, eq=False)
class PointerRegister:
    """A pointer realized as a concrete 2-dim factor of the composite.

    For a strong register the factor basis is (ready, shifted). For a
    weak register it is an orthonormal basis of span{ready packet,
    kicked packet} on the grid; moved_coeffs are the kicked packet's
    coordinates in that basis and pos_op/pos2_op are the projected
    position operator and its square.
    """

    spec: PointerSpec
    moved_coeffs: np.ndarray
    mass_loss: float = 0.0
    positions: np.ndarray | None = None
    basis: np.ndarray | None = None
    pos_op: np.ndarray | None = None
    pos2_op: np.ndarray | None = None

    @property
    def site(self) -> str:
        return self.spec.site

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def factor_labels(self) -> tuple[str, str]:
        return ("ready", "shifted") if self.kind == STRONG else ("b0", "b1")

    @property
    def ready_wave(self) -> np.ndarray | None:
        return None if self.basis is None else self.basis[0]

    @property
    def moved_wave(self) -> np.ndarray | None:
        if self.basis is None:
            return None
        return self.moved_coeffs[0] * self.basis[0] + self.moved_coeffs[1] * self.basis[1]


def _weak_register(spec: PointerSpec) -> PointerRegister:
    half = spec.grid_extent * spec.sigma
    q = np.linspace(-half, half, spec.grid_size)
    raw = np.exp(-(q**2) / (4.0 * spec.sigma**2))
    scale = np.linalg.norm(raw)
    ready = raw / scale
    # Translate analytically, keeping the ready normalization so the
    # retained mass is directly comparable.
    kicked_raw = np.exp(-((q - spec.g) ** 2) / (4.0 * spec.sigma**2)) / scale
    retained = float(np.linalg.norm(kicked_raw))
    mass_loss = abs(1.0 - retained**2)
    if mass_loss > MASS_LOSS_LIMIT:
        raise GridTooSmallError(
            f"pointer at {spec.site!r}: translation by g={spec.g} loses {mass_loss:.3e} "
            f"probability mass off the +-{half} grid"
        )
    kicked = kicked_raw / retained
    ov = float(np.dot(ready, kicked))
    resid = kicked - ov * ready
    rn = float(np.linalg.norm(resid))
    if rn > WEAK_BASIS_FLOOR:
        e1 = resid / rn
    else:
        # Kicked packet coincides with ready; pick any orthogonal
        # completion so the factor stays 2-dim.
        e1 = q * ready
        e1 = e1 - np.dot(ready, e1) * ready
        e1 = e1 / np.linalg.norm(e1)
    basis = np.vstack([ready, e1])
    pos = np.einsum("in,n,jn->ij", basis, q, basis)
    pos2 = np.einsum("in,n,jn->ij", basis, q**2, basis)
    for arr in (q, basis, pos, pos2):
        arr.setflags(write=False)
    moved = np.array([ov, rn])
    moved.setflags(write=False)
    return PointerRegister(
        spec=spec,
        moved_coeffs=moved,
        mass_loss=mass_loss,
        positions=q,
        basis=basis,
        pos_op=pos,
        pos2_op=pos2,
    )


def make_register(spec: PointerSpec) -> PointerRegister:
    """Realize a pointer spec as a register ready for coupling."""
    if spec.kind == STRONG:
        moved = np.array([0.0, 1.0])
        moved.setflags(write=False)
        return PointerRegister(spec=spec, moved_coeffs=moved)
    return _weak_register(spec)


@dataclass(frozen=True, eq=False)
class CompositeState:
    """System plus pointer registers, stored as one flat amplitude vector.

    system_labels is None once the system has been postselected away.
    coupled tracks which registers have been consumed by a coupling;
    coupling one twice is a contract violation (the compact weak-factor
    representation relies on single use).
    """

    system_labels: tuple[str, ...] | None
    registers: tuple[PointerRegister, ...]
    amps: np.ndarray
    coupled: frozenset[str] = frozenset()
    system_name: str = "path"

    def __post_init__(self):
        arr = np.array(self.amps, dtype=complex).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)
        object.__setattr__(self, "registers", tuple(self.registers))
        sites = [r.site for r in self.registers]
        if len(set(sites)) != len(sites):
            raise ContractError(f"duplicate register sites in {sites}")
        sysdim = 1 if self.system_labels is None else len(self.system_labels)
        expected = sysdim * 2 ** len(self.registers)
        if arr.size != expected:
            raise ContractError(f"amplitude vector has size {arr.size}, expected {expected}")

    @property
    def shape(self) -> tuple[int, ...]:
        head = () if self.system_labels is None else (len(self.system_labels),)
        return head + (2,) * len(self.registers)

    def tensor_view(self) -> np.ndarray:
        return self.amps.reshape(self.shape)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def register_index(self, site: str) -> int:
        for k, reg in enumerate(self.registers):
            if reg.site == site:
                return k
        raise ContractError(f"no register at site {site!r}")

    def register(self, site: str) -> PointerRegister:
        return self.registers[self.register_index(site)]

    def apply_system(self, op: Operator) -> CompositeState:
        """Act with an operator on the system factor alone."""
        if self.system_labels is None:
            raise ContractError("system factor is gone, state was already postselected")
        if op.dim != len(self.system_labels):
            raise DimensionMismatchError(
                f"operator dim {op.dim} vs system dim {len(self.system_labels)}"
            )
        t = np.tensordot(op.matrix, self.tensor_view(), axes=(1, 0))
        return replace(self, amps=t.reshape(-1))

    def basis_label(self, flat_index: int) -> str:
        """Human-readable name of one composite basis direction."""
        idx = np.unravel_index(flat_index, self.shape)
        parts = []
        if self.system_labels is not None:
            parts.append(f"{self.system_name}={self.system_labels[idx[0]]}")
            idx = idx[1:]
        for reg, i in zip(self.registers, idx):
            parts.append(f"{reg.site}={reg.factor_labels[i]}")
        return "|".join(parts)


def initial_state(system: Ket, pointers, system_name: str = "path") -> CompositeState:
    """System ket with every register attached in its ready state.

    pointers may hold PointerSpec or PointerRegister entries.
    """
    regs = tuple(p if isinstance(p, PointerRegister) else make_register(p) for p in pointers)
    shape = (system.dim,) + (2,) * len(regs)
    t = np.zeros(shape, dtype=complex)
    t[(slice(None),) + (0,) * len(regs)] = system.amps
    return CompositeState(
        system_labels=system.labels, registers=regs, amps=t.reshape(-1), system_name=system_name
    )


def _couple(state: CompositeState, proj: Operator, site: str, kind: str) -> CompositeState:
    if state.system_labels is None:
        raise ContractError("cannot couple after postselection removed the system")
    if site in state.coupled:
        raise ContractError(f"register at site {site!r} was already coupled once")
    reg = state.register(site)
    if reg.kind != kind:
        raise ContractError(f"register at site {site!r} is {reg.kind}, not {kind}")
    if not proj.is_projector():
        raise ContractError(f"coupling at site {site!r} needs a projector")
    if proj.dim != len(state.system_labels):
        raise DimensionMismatchError(
            f"projector dim {proj.dim} vs system dim {len(state.system_labels)}"
        )
    ax = 1 + state.register_index(site)
    # Uncoupled register sits in its ready basis state, so the whole
    # amplitude lives in the axis-0 slice.
    ready_slice = np.take(state.tensor_view(), 0, axis=ax)
    hit = np.tensordot(proj.matrix, ready_slice, axes=(1, 0))
    miss = ready_slice - hit
    hv = reg.moved_coeffs
    new = np.stack([hit * hv[0] + miss, hit * hv[1]], axis=ax)
    return replace(state, amps=new.reshape(-1), coupled=state.coupled | {site})


def couple_strong(state: CompositeState, proj: Operator, site: str) -> CompositeState:
    """Shift the strong register at site in the proj branch of the system.

    The miss branch leaves the register ready; norms are preserved
    exactly. Coupling to the zero projector is a no-op on amplitudes,
    to the identity a full shift.
    """
    return _couple(state, proj, site, STRONG)


def couple_weak(state: CompositeState, proj: Operator, site: str) -> CompositeState:
    """Translate the weak register's packet by g in the proj branch."""
    return _couple(state, proj, site, WEAK)


@dataclass(frozen=True, eq=False)
class PostselectionResult:
    """Outcome of projecting the system onto a final state.

    unnormalized keeps the raw branch; probability is its squared norm.
    conditional is the renormalized pointer state, or None when the
    postselection amplitude is degenerate (sqrt(probability) <= tol).
    """

    unnormalized: CompositeState
    probability: float
    conditional: CompositeState | None
    degenerate: bool


def postselect(
    state: CompositeState, post: Ket, tol: float = DEFAULT_TOLERANCE
) -> PostselectionResult:
    """Contract the system factor with <post|, leaving pointer registers."""
    if state.system_labels is None:
        raise ContractError("state has no system factor left to postselect")
    if post.dim != len(state.system_labels):
        raise DimensionMismatchError(
            f"postselection dim {post.dim} vs system dim {len(state.system_labels)}"
        )
    contracted = np.tensordot(post.amps.conj(), state.tensor_view(), axes=(0, 0))
    unnorm = replace(state, system_labels=None, amps=contracted.reshape(-1))
    prob = float(np.linalg.norm(contracted) ** 2)
    degenerate = bool(np.sqrt(prob) <= tol)
    conditional = None
    if not degenerate:
        conditional = replace(unnorm, amps=unnorm.amps / np.sqrt(prob))
    return PostselectionResult(
        unnormalized=unnorm, probability=prob, conditional=conditional, degenerate=degenerate
    )


@dataclass(frozen=True, eq=False)
class WeakPointerStats:
    """Position statistics of one weak register after readout.

    positions/probabilities give the exact marginal distribution of the
    packet on its grid; mean and variance are its first two moments.
    """

    site: str
    mean: float
    variance: float
    positions: np.ndarray
    probabilities: np.ndarray


@dataclass(frozen=True, eq=False)
class ClickStats:
    """Readout of a pointer-only state.

    strong maps site -> click probability. patterns maps each tuple of
    clicked sites (register order) to its joint probability, covering
    all strong outcome combinations. weak maps site -> position stats.
    """

    strong: dict[str, float]
    patterns: dict[tuple[str, ...], float]
    weak: dict[str, WeakPointerStats]


def click_readout(state: CompositeState) -> ClickStats:
    """Full readout statistics of a normalized pointer-only state."""
    if state.system_labels is not None:
        raise ContractError("postselect the system away before reading the pointers out")
    if not is_normalized(state.amps, READOUT_NORM_TOL):
        raise ContractError(f"click_readout needs a normalized state, got norm {state.norm():.6g}")
    t = state.tensor_view()
    strong_axes = [k for k, r in enumerate(state.registers) if r.kind == STRONG]
    weak_axes = [k for k, r in enumerate(state.registers) if r.kind == WEAK]
    p = np.abs(t) ** 2
    joint = p.sum(axis=tuple(weak_axes)) if weak_axes else p

    strong = {}
    for j, k in enumerate(strong_axes):
        strong[state.registers[k].site] = float(np.take(joint, 1, axis=j).sum())

    patterns = {}
    for combo in np.ndindex(joint.shape):
        pattern = tuple(
            state.registers[strong_axes[j]].site for j, bit in enumerate(combo) if bit == 1
        )
        patterns[pattern] = float(joint[combo])

    weak = {}
    for k in weak_axes:
        reg = state.registers[k]
        m = np.moveaxis(t, k, 0).reshape(2, -1)
        rho = m @ m.conj().T
        mean = float(np.real(np.trace(rho @ reg.pos_op)))
        second = float(np.real(np.trace(rho @ reg.pos2_op)))
        dist = np.real(np.einsum("ij,in,jn->n", rho, reg.basis, reg.basis))
        dist.setflags(write=False)
        weak[reg.site] = WeakPointerStats(
            site=reg.site,
            mean=mean,
            variance=second - mean**2,
            positions=reg.positions,
            probabilities=dist,
        )
    return ClickStats(strong=strong, patterns=patterns, weak=weak)


def pattern_amplitudes(state: CompositeState) -> dict[tuple[str, ...], complex]:
    """Branch amplitude per strong click pattern of a system-free state.

    With weak registers present a branch is a vector, so its norm is
    returned (as a non-negative real); without them the complex branch
    amplitude itself.
    """
    if state.system_labels is not None:
        raise ContractError("pattern amplitudes are defined after postselection")
    t = state.tensor_view()
    strong_axes = [k for k, r in enumerate(state.registers) if r.kind == STRONG]
    weak_axes = [k for k, r in enumerate(state.registers) if r.kind == WEAK]
    order = strong_axes + weak_axes
    arranged = np.transpose(t, order) if order else t
    out = {}
    ns = len(strong_axes)
    for combo in np.ndindex((2,) * ns):
        branch = arranged[combo]
        pattern = tuple(
            state.registers[strong_axes[j]].site for j, bit in enumerate(combo) if bit == 1
        )
        if weak_axes:
            out[pattern] = complex(np.linalg.norm(branch))
        else:
            out[pattern] = complex(branch)
    return out
