"""Measurement pointers and their coupling to a pre/postselected system.

Two register kinds exist. A strong register is a two-level flag: the
projected branch of the system shifts it from "ready" to an orthogonal
"shifted" state, so a later click is a certainty statement about the
branch. A weak register is a Gaussian wavepacket on a position grid
that the projected branch translates by a small g; its post-kick state
overlaps the ready state almost completely, which is what makes the
coupling gentle.

A PointerSpec declares a pointer and, once on construction, realizes
its register as a 2-dim factor; composite states hold the specs as
their registers. A weak register occupies only the 2-dim span of its
ready and kicked wavepackets (each register is kicked at most once,
which the coupling contract enforces). A composite state stores only
its live branches, one system vector per setting of the registers
that is not exactly zero: system dimension × (live branches)
amplitudes. A register not yet coupled is still ready, and a coupling
drops the branches it leaves exactly zero, as the zero transition
amplitudes of an interferometer do, so a sparse run stays small where
the full composite would hold system dimension × 2**n amplitudes.
Readout builds the full 2**n pointer layout. Position statistics are
exact: the position operator is projected onto that span and marginal
position distributions are reconstructed on the full grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from .errors import (
    SCHEMA,
    ContractError,
    DimensionMismatchError,
    ScenarioError,
)
from .qcore import (
    DEFAULT_TOLERANCE,
    MASS_LOSS_LIMIT,
    MAX_GRID_SIZE,
    MAX_POINTER_REGISTERS,
    MAX_POINTER_SCALE,
    MIN_WEAK_OVERLAP,
    PATTERN_FLOOR,
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
    """Declaration of one pointer, realized as its 2-dim register factor.

    Attributes:
        site: label of the probed site.
        kind: "strong" or "weak".
        g: translation of the weak packet in the projected branch.
        sigma: width of |G|^2 for the weak packet.
        grid_size: odd number of grid points (weak only).
        grid_extent: grid spans +-grid_extent*sigma (weak only).

    The factor is built once, on construction, and read-only; it takes
    no part in equality, hashing or repr. For a strong register the
    factor basis is (ready, shifted). For a weak register it is an
    orthonormal basis of span{ready packet, kicked packet} on the grid
    positions; moved_coeffs are the kicked packet's coordinates in that
    basis, mass_loss the probability the kick pushes off the grid, and
    pos_op/pos2_op the projected position operator and its square.
    """

    site: str
    kind: str
    g: float = 0.01
    sigma: float = 1.0
    grid_size: int = 201
    grid_extent: float = 6.0
    moved_coeffs: np.ndarray = field(init=False, compare=False, repr=False)
    mass_loss: float = field(default=0.0, init=False, compare=False, repr=False)
    positions: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)
    basis: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)
    pos_op: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)
    pos2_op: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

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
            object.__setattr__(self, "moved_coeffs", _STRONG_MOVED)
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
        q, ready, kicked, mass_loss = _weak_packets(self)
        if mass_loss > MASS_LOSS_LIMIT:
            self._reject(f"grid too small: kick g={self.g} loses {mass_loss:.3e} probability mass")
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
        factor = dict(
            moved_coeffs=np.array([ov, rn]),
            positions=q,
            basis=basis,
            pos_op=np.einsum("in,n,jn->ij", basis, q, basis),
            pos2_op=np.einsum("in,n,jn->ij", basis, q**2, basis),
        )
        for name, arr in factor.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "mass_loss", mass_loss)

    def _reject(self, problem: str):
        raise ScenarioError(SCHEMA, f"pointer at {self.site!r}: {problem}")


_STRONG_MOVED = np.array([0.0, 1.0])
_STRONG_MOVED.setflags(write=False)


def _weak_packets(spec: PointerSpec):
    """Grid, ready packet, kicked packet, and the mass the kick pushes off the grid."""
    half = spec.grid_extent * spec.sigma
    q = np.linspace(-half, half, spec.grid_size)
    raw = np.exp(-(q**2) / (4.0 * spec.sigma**2))
    scale = np.linalg.norm(raw)
    # Translate analytically, keeping the ready normalization so the
    # retained mass is directly comparable.
    kicked_raw = np.exp(-((q - spec.g) ** 2) / (4.0 * spec.sigma**2)) / scale
    retained = float(np.linalg.norm(kicked_raw))
    return q, raw / scale, kicked_raw / retained, abs(1.0 - retained**2)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _read_only(data, dtype) -> np.ndarray:
    """data as a read-only array of dtype; only writable input is copied."""
    if isinstance(data, np.ndarray) and data.dtype == dtype and not data.flags.writeable:
        return data
    return _freeze(np.array(data, dtype=dtype))


@dataclass(frozen=True, eq=False)
class CompositeState:
    """System plus pointer registers, stored as its live branches.

    The full layout has the system axis (system_dim long, absent once
    the system has been postselected away and system_dim is None) and
    then one 2-long axis per register. A branch is one setting of every
    register, and its code is its flat np.ndindex index over the
    register axes: bit n-1-k is set when register k is shifted.
    branches holds one system vector per live branch, (system_dim, B),
    or one amplitude per branch, (B,), once the system is gone; codes
    holds their (B,) int64 codes. Every branch not in codes is exactly
    zero: a register stays ready until its coupling, and a coupling
    drops the branches it leaves exactly zero, which no later linear
    map can revive. So after k couplings the state holds system dim ×
    (live branches) amplitudes, at most system dim × 2**k.
    tensor_view() scatters them into the full layout; only readout
    builds it. coupled tracks which registers have been consumed by a
    coupling; coupling one twice is a contract violation (the compact
    weak-factor representation relies on single use).
    """

    system_dim: int | None
    registers: tuple[PointerSpec, ...]
    branches: np.ndarray
    codes: np.ndarray
    coupled: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "registers", tuple(self.registers))
        if len(self.registers) > MAX_POINTER_REGISTERS:
            raise ContractError(
                f"{len(self.registers)} pointer registers exceed the limit of "
                f"{MAX_POINTER_REGISTERS}"
            )
        sites = [r.site for r in self.registers]
        if len(set(sites)) != len(sites):
            raise ContractError(f"duplicate register sites in {sites}")
        branches = _read_only(self.branches, complex)
        codes = _read_only(self.codes, np.int64)
        head = () if self.system_dim is None else (self.system_dim,)
        if codes.ndim != 1 or branches.shape != head + codes.shape:
            raise ContractError(
                f"branches of shape {branches.shape} do not fit system dim "
                f"{self.system_dim} and codes of shape {codes.shape}"
            )
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "codes", codes)

    @property
    def shape(self) -> tuple[int, ...]:
        head = () if self.system_dim is None else (self.system_dim,)
        return head + (2,) * len(self.registers)

    def tensor_view(self) -> np.ndarray:
        t = np.zeros(self.branches.shape[:-1] + (2 ** len(self.registers),), dtype=complex)
        t[..., self.codes] = self.branches
        return _freeze(t.reshape(self.shape))

    def norm(self) -> float:
        return float(np.linalg.norm(self.branches))

    def register_index(self, site: str) -> int:
        for k, reg in enumerate(self.registers):
            if reg.site == site:
                return k
        raise ContractError(f"no register at site {site!r}")

    def _check_system(self, what: str, dim: int) -> None:
        """Reject acting on a system factor that is gone or of another dim."""
        if self.system_dim is None:
            raise ContractError(f"{what}: the system was already postselected away")
        if dim != self.system_dim:
            raise DimensionMismatchError(f"{what} dim {dim} vs system dim {self.system_dim}")

    def apply_system(self, op: Operator) -> CompositeState:
        """Act with an operator on the system factor alone."""
        self._check_system("operator", op.dim)
        return replace(self, branches=_freeze(op.matrix @ self.branches))


_READY_CODE = _freeze(np.zeros(1, dtype=np.int64))


def initial_state(system: Ket, pointers) -> CompositeState:
    """System ket with every pointer's register attached in its ready state."""
    return CompositeState(
        system_dim=system.dim, registers=pointers, branches=system.amps[:, None], codes=_READY_CODE
    )


def _couple(state: CompositeState, proj: Operator, site: str, kind: str) -> CompositeState:
    state._check_system("projector", proj.dim)
    if site in state.coupled:
        raise ContractError(f"register at site {site!r} was already coupled once")
    k = state.register_index(site)
    reg = state.registers[k]
    if reg.kind != kind:
        raise ContractError(f"register at site {site!r} is {reg.kind}, not {kind}")
    if not proj.is_projector():
        raise ContractError(f"coupling at site {site!r} needs a projector")
    # Every branch has the register ready: split it into the miss branch
    # (still ready) and the kicked hit branch, which gets the register's bit.
    hit = proj.matrix @ state.branches
    miss = state.branches - hit
    if kind == STRONG:
        # moved_coeffs are exactly (0, 1): the products change no value.
        new = np.concatenate([miss, hit], axis=1)
    else:
        hv = reg.moved_coeffs
        new = np.concatenate([hit * hv[0] + miss, hit * hv[1]], axis=1)
    bit = 1 << (len(state.registers) - 1 - k)
    codes = np.concatenate([state.codes, state.codes | bit])
    live = new.any(axis=0)
    if not live.all():
        new, codes = new[:, live], codes[live]
    return replace(
        state, branches=_freeze(new), codes=_freeze(codes), coupled=state.coupled | {site}
    )


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
    state._check_system("postselection", post.dim)
    amps = _freeze(post.amps.conj() @ state.branches)
    unnorm = replace(state, system_dim=None, branches=amps)
    # The norm runs over the full layout, zeros included, so it rounds as
    # it would over a dense composite.
    prob = float(np.linalg.norm(unnorm.tensor_view()) ** 2)
    degenerate = bool(np.sqrt(prob) <= tol)
    conditional = None
    if not degenerate:
        conditional = replace(unnorm, branches=_freeze(amps / np.sqrt(prob)))
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
    clicked sites (register order) to its joint probability; only the
    patterns above PATTERN_FLOOR are present, in np.ndindex order over
    the strong registers. weak maps site -> position stats.
    """

    strong: dict[str, float]
    patterns: dict[tuple[str, ...], float]
    weak: dict[str, WeakPointerStats]


def _site_tuples(sites: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The clicked sites of every bit combination, in np.ndindex order."""
    names = [()]
    for site in sites:
        names = [name + extra for name in names for extra in ((), (site,))]
    return names


def _pattern_names(sites: tuple[str, ...], flat: np.ndarray) -> list[tuple[str, ...]]:
    """Clicked sites of each flat index into a (2,) * len(sites) array.

    An index is named from two prefix tables, one for its high bits and
    one for its low bits, so the cost follows the indices asked for and
    the tables hold about 2 * 2**(len(sites) / 2) tuples.
    """
    low = len(sites) // 2
    high_names = _site_tuples(sites[: len(sites) - low])
    low_names = _site_tuples(sites[len(sites) - low :])
    mask = (1 << low) - 1
    return [high_names[i >> low] + low_names[i & mask] for i in flat.tolist()]


def _axes(state: CompositeState, kind: str) -> list[int]:
    return [k for k, r in enumerate(state.registers) if r.kind == kind]


def click_readout(state: CompositeState) -> ClickStats:
    """Full readout statistics of a normalized pointer-only state."""
    if state.system_dim is not None:
        raise ContractError("postselect the system away before reading the pointers out")
    if not is_normalized(state.branches, READOUT_NORM_TOL):
        raise ContractError(f"click_readout needs a normalized state, got norm {state.norm():.6g}")
    t = state.tensor_view()
    strong_axes, weak_axes = _axes(state, STRONG), _axes(state, WEAK)
    strong_sites = tuple(state.registers[k].site for k in strong_axes)
    p = np.abs(t) ** 2
    joint = p.sum(axis=tuple(weak_axes)) if weak_axes else p

    strong = {site: float(np.take(joint, 1, axis=j).sum()) for j, site in enumerate(strong_sites)}

    flat = joint.reshape(-1)
    kept = np.flatnonzero(flat > PATTERN_FLOOR)
    patterns = dict(zip(_pattern_names(strong_sites, kept), flat[kept].tolist()))

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

    Every pattern is present, in np.ndindex order over the strong
    registers. With weak registers present a branch is a vector, so its
    norm is returned (as a non-negative real); without them the complex
    branch amplitude itself.
    """
    if state.system_dim is not None:
        raise ContractError("pattern amplitudes are defined after postselection")
    strong_axes, weak_axes = _axes(state, STRONG), _axes(state, WEAK)
    strong_sites = tuple(state.registers[k].site for k in strong_axes)
    branches = np.transpose(state.tensor_view(), strong_axes + weak_axes).reshape(
        2 ** len(strong_axes), -1
    )
    names = _pattern_names(strong_sites, np.arange(branches.shape[0]))
    if weak_axes:
        return {name: complex(np.linalg.norm(b)) for name, b in zip(names, branches)}
    return dict(zip(names, branches[:, 0].tolist()))
