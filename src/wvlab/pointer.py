"""Measurement pointers and their coupling to a pre/postselected system.

Two register kinds exist. A strong register is a two-level flag: the
projected branch of the system shifts it from "ready" to an orthogonal
"shifted" state, so a later click is a certainty statement about the
branch. A weak register is a Gaussian wavepacket on a position grid
that the projected branch translates by a small g; its post-kick state
matches the ready state almost completely, which is what makes the
coupling gentle. Both are the same von Neumann coupling: they differ
only in where the kicked register lands, (0, 1) for a strong flag and
moved_coeffs for a weak packet.

A PointerSpec declares a pointer and, once on construction, realizes
its register as a 2-dim factor. A weak register occupies only the
2-dim span of its ready and kicked wavepackets (each register is
kicked at most once: a scenario holds one pointer per site).

A pointer run is one pass over two read-only arrays: the live branches,
one system vector per setting of the registers that is not exactly
zero, (system dim, B), and their (B,) int64 click codes. register_bits
settles each register's bit before anything is allocated, so a run
couples at most MAX_POINTER_REGISTERS (63) registers, the bits of an
int64 code. A register not yet coupled is still ready; couple splits
every branch into its miss and hit parts and drops the ones left
exactly zero, as the zero transition amplitudes of an interferometer
do, so a sparse run keeps a handful of the 2**n branches. strong_block
groups the postselected branches by strong code with np.unique into a
(live strong codes, 2**n_weak) block, dense over the weak registers.
click_readout reads the block normalized, pattern_amplitudes
unnormalized. A coupling split or a block larger than
MAX_LIVE_AMPLITUDES (2**26 amplitudes, 1 GiB) is refused with
ContractError. click_readout keeps only the click patterns
above PATTERN_FLOOR, so its cost follows the patterns it reports.
Position statistics are exact: the position operator is projected onto
the weak span and marginal position distributions are reconstructed on
the full grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import SCHEMA, ContractError, ScenarioError
from .qcore import (
    MASS_LOSS_LIMIT,
    MAX_GRID_SIZE,
    MAX_LIVE_AMPLITUDES,
    MAX_POINTER_REGISTERS,
    MAX_POINTER_SCALE,
    MIN_WEAK_OVERLAP,
    PATTERN_FLOOR,
    WEAK_BASIS_FLOOR,
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
            # completion so the factor stays 2-dim. A packet on one grid
            # point has none: q * ready is then parallel to it, or zero.
            along = q * ready
            e1 = along - np.dot(ready, along) * ready
            en = float(np.linalg.norm(e1))
            if not en > WEAK_BASIS_FLOOR * np.linalg.norm(along):
                self._reject("grid too coarse: the packet sits on one grid point")
            e1 = e1 / en
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


def register_bits(pointers) -> dict[str, int]:
    """Site -> click bit of each pointer's register.

    The strong registers take the high bits and the weak registers the
    low bits, each group in declaration order from the highest bit
    down, so a code's strong part is code >> n_weak and code order is
    np.ndindex order over the strong registers. Raises ContractError,
    before anything is allocated, for more than MAX_POINTER_REGISTERS
    registers.
    """
    n = len(pointers)
    if n > MAX_POINTER_REGISTERS:
        raise ContractError(
            f"{n} pointer registers exceed the limit of {MAX_POINTER_REGISTERS}"
        )
    ordered = [ps for ps in pointers if ps.kind == STRONG]
    ordered += [ps for ps in pointers if ps.kind == WEAK]
    return {ps.site: 1 << (n - 1 - k) for k, ps in enumerate(ordered)}


def _check_size(size: int, what: str):
    if size > MAX_LIVE_AMPLITUDES:
        raise ContractError(
            f"{what} would hold {size} amplitudes, over the limit of {MAX_LIVE_AMPLITUDES}"
        )


READY_CODE = _freeze(np.zeros(1, dtype=np.int64))


def act(matrix: np.ndarray, branches: np.ndarray) -> np.ndarray:
    """A system operator applied to every live branch."""
    return _freeze(matrix @ branches)


def couple(branches, codes, proj, bit, spec):
    """Kick a ready register (click bit `bit`) in the proj branch.

    branches is (system dim, B), one system vector per live branch, and
    codes their (B,) int64 click codes. Returns both, read-only, with
    each branch split into its miss part (register still ready) and its
    hit part (code | bit) and the exactly-zero columns dropped: no later
    linear map revives them. A weak register's hit part is split over
    its factor basis by spec.moved_coeffs; a strong register's are
    exactly (0, 1), so no product is taken. Norms are preserved; the
    zero projector changes no amplitude, the identity kicks every branch.
    """
    # Both parts are written in place, so the split allocates only its
    # 2 * branches.size result.
    _check_size(2 * branches.size, "a coupling")
    b = branches.shape[1]
    new = np.empty((branches.shape[0], 2 * b), dtype=complex)
    miss, hit = new[:, :b], new[:, b:]
    np.matmul(proj, branches, out=hit)
    np.subtract(branches, hit, out=miss)
    if spec.kind == WEAK:
        moved = spec.moved_coeffs
        miss += hit * moved[0]
        hit *= moved[1]
    codes = np.concatenate([codes, codes | bit])
    live = new.any(axis=0)
    if not live.all():
        new, codes = new[:, live], codes[live]
    return _freeze(new), _freeze(codes)


def strong_block(amps, codes, registers):
    """Postselected live amplitudes grouped by their strong click code.

    amps are the (B,) amplitudes <post|branch> and codes their click
    codes (register_bits of registers). Returns the live strong codes,
    np.unique(codes >> n_weak), and a fresh, writable (live strong
    codes, 2**n_weak) block: row i holds strong code i's amplitudes at
    their weak codes, the rest exactly zero.
    """
    n_weak = sum(r.kind == WEAK for r in registers)
    strong, row = np.unique(codes >> n_weak, return_inverse=True)
    # A block's rows span all 2**n_weak weak codes, even with no row.
    _check_size(max(strong.size, 1) << n_weak, "the readout block")
    block = np.zeros((strong.size, 1 << n_weak), dtype=complex)
    block[row, codes & ((1 << n_weak) - 1)] = amps
    return strong, block


@dataclass(frozen=True, eq=False)
class WeakPointerStats:
    """Position statistics of one weak register after readout.

    positions/probabilities give the exact marginal distribution of the
    packet on its grid; mean and variance are its first two moments.
    The register's site is its key in click_readout's weak_stats.
    """

    mean: float
    variance: float
    positions: np.ndarray
    probabilities: np.ndarray


def _site_tuples(sites: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The clicked sites of every bit combination, in np.ndindex order."""
    names = [()]
    for site in sites:
        names = [name + extra for name in names for extra in ((), (site,))]
    return names


def _pattern_names(sites: tuple[str, ...], codes: np.ndarray) -> list[tuple[str, ...]]:
    """Clicked sites of each code, site k holding bit len(sites)-1-k.

    A code is named from max(2, ceil(len(sites) / 8)) balanced chunks
    of its bits, one table of clicked sites per chunk, so the cost
    follows the codes asked for and no table holds more than 256 tuples.
    """
    n = len(sites)
    chunks = max(2, -(-n // 8))
    cuts = [n * c // chunks for c in range(chunks + 1)]
    parts = [
        (_site_tuples(sites[lo:hi]), ((codes >> (n - hi)) & ((1 << (hi - lo)) - 1)).tolist())
        for lo, hi in zip(cuts, cuts[1:])
    ]
    (first, i0), (second, i1) = parts[:2]
    names = [first[a] + second[b] for a, b in zip(i0, i1)]
    for table, idx in parts[2:]:
        names = [name + table[i] for name, i in zip(names, idx)]
    return names


def _sites(registers, kind: str) -> tuple[str, ...]:
    return tuple(r.site for r in registers if r.kind == kind)


def click_readout(strong, block, registers) -> dict:
    """Full readout statistics of a normalized block (see strong_block).

    Returns the report sections: clicks maps site -> click probability.
    patterns maps each tuple of clicked sites (register order) to its
    joint probability; only the patterns above PATTERN_FLOOR are
    present, in np.ndindex order over the strong registers. weak_stats
    maps site -> position stats.
    """
    strong_sites = _sites(registers, STRONG)
    weak_regs = [r for r in registers if r.kind == WEAK]
    joint = (np.abs(block) ** 2).sum(axis=1)

    n = len(strong_sites)
    clicks = {
        site: float(joint[(strong & (1 << (n - 1 - j))) != 0].sum())
        for j, site in enumerate(strong_sites)
    }

    kept = np.flatnonzero(joint > PATTERN_FLOOR)
    patterns = dict(zip(_pattern_names(strong_sites, strong[kept]), joint[kept].tolist()))

    weak = {}
    cube = block.reshape((-1,) + (2,) * len(weak_regs))
    for k, reg in enumerate(weak_regs):
        m = np.moveaxis(cube, 1 + k, 0).reshape(2, -1)
        rho = m @ m.conj().T
        mean = float(np.real(np.trace(rho @ reg.pos_op)))
        second = float(np.real(np.trace(rho @ reg.pos2_op)))
        dist = np.real(np.einsum("ij,in,jn->n", rho, reg.basis, reg.basis))
        dist.setflags(write=False)
        weak[reg.site] = WeakPointerStats(
            mean=mean,
            variance=second - mean**2,
            positions=reg.positions,
            probabilities=dist,
        )
    return dict(clicks=clicks, patterns=patterns, weak_stats=weak)


def pattern_amplitudes(strong, block, registers) -> dict[tuple[str, ...], complex]:
    """Branch amplitude per strong click pattern of an unnormalized block.

    Only the patterns whose branch is not exactly zero are present, in
    np.ndindex order over the strong registers. With weak registers
    present a branch is a block row, so its norm is returned (as a
    non-negative real); without them the complex branch amplitude itself.
    """
    live = np.flatnonzero(block.any(axis=1))
    names = _pattern_names(_sites(registers, STRONG), strong[live])
    if block.shape[1] > 1:
        return {name: complex(np.linalg.norm(block[i])) for name, i in zip(names, live.tolist())}
    return dict(zip(names, block[live, 0].tolist()))
