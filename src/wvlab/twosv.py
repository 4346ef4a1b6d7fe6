"""Two-state-vector engine: timelines, the two-state sweep, weak values.

A Timeline owns a scenario's shape: at least two stages with unique,
non-empty, printable names, joined by unitary segments of one dimension,
the timeline's dim. A system is prepared in a pre-selected state at the
first stage and postselected at the last. One sweep carries |pre>
forward through the segments, giving |pre(t)> at every stage, and drags
<post| back through their adjoints, giving <post(t)| at every stage: the
two-state vector of Aharonov, Bergmann and Lebowitz. The transition
amplitude through an operator A at stage t is then one inner product,

    tau = <post(t)| A |pre(t)>,

and a weak value divides tau by the sweep's one bare amplitude
<post|U(t_f, t_i)|pre>, so a row is degenerate exactly when its report
is. transition_amplitude, weak_value, weak_value_sum and sum_rule_check
read the latest sweep of their timeline and pre/post pair, so a report
row is one mat-vec and one inner product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    NON_NORMALIZED_STATE,
    NON_UNITARY_SEGMENT,
    SCHEMA,
    ContractError,
    DegeneratePostselectionError,
    ScenarioError,
)
from .qcore import DEFAULT_TOLERANCE, Ket, Operator, identity, resolves_identity


def check_names(names, what: str, reserved: str = "", reserved_names=()) -> tuple:
    """names as a tuple, once each is a unique, non-empty, printable str
    with no character of reserved and none of reserved_names. Text output
    prints these names; a bad one could forge its lines or pass for other
    output. The first raises ScenarioError(schema) naming what and its repr.
    """
    names, seen = tuple(names), set()
    for name in names:
        if (not isinstance(name, str) or not name or not name.isprintable()
                or any(c in reserved for c in name) or name in reserved_names):
            rule = f" without any of {reserved!r}" if reserved else ""
            rule += "".join(f", not {r!r}" for r in reserved_names)
            raise ScenarioError(SCHEMA, f"{what} {name!r} must be a non-empty printable str{rule}")
        if name in seen:
            raise ScenarioError(SCHEMA, f"duplicate {what} {name!r}")
        seen.add(name)
    return names


@dataclass(frozen=True, eq=False)
class Timeline:
    """Named stages joined by unitary segments.

    segments[k] carries states from stages[k] to stages[k+1]. There are at
    least two stages with unique, non-empty, printable str names. The
    segments share one dimension, and each segment, and their composition,
    must be unitary within STRUCT_TOL; a broken invariant raises ScenarioError.
    """

    stages: tuple[str, ...]
    segments: tuple[Operator, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", check_names(self.stages, "stage name"))
        object.__setattr__(self, "segments", tuple(self.segments))
        if len(self.stages) < 2:
            raise ScenarioError(SCHEMA, "timeline needs at least two stages")
        object.__setattr__(self, "_positions", {s: k for k, s in enumerate(self.stages)})
        if len(self.segments) != len(self.stages) - 1:
            raise ScenarioError(
                SCHEMA,
                f"{len(self.stages)} stages need {len(self.stages) - 1} segments, "
                f"got {len(self.segments)}",
            )
        dims = {seg.dim for seg in self.segments}
        if len(dims) > 1:
            raise ScenarioError(SCHEMA, f"segments of mixed dimension {sorted(dims)}")
        for k, seg in enumerate(self.segments):
            if not seg.is_unitary():
                raise ScenarioError(
                    NON_UNITARY_SEGMENT,
                    f"segment {self.stages[k]}->{self.stages[k + 1]} is not unitary",
                )
        total = np.eye(self.dim, dtype=complex)
        for seg in self.segments:
            total = seg.matrix @ total
        if not Operator(total).is_unitary():
            raise ScenarioError(NON_UNITARY_SEGMENT, "composed timeline evolution is not unitary")

    @property
    def dim(self) -> int:
        return self.segments[0].dim

    def index(self, stage: str) -> int:
        try:
            return self._positions[stage]
        except (KeyError, TypeError):
            raise ContractError(f"unknown stage {stage!r}, timeline has {self.stages}") from None


def identity_timeline(stages, dim: int) -> Timeline:
    """Timeline whose segments all do nothing."""
    stages = tuple(stages)
    return Timeline(stages, tuple(identity(dim) for _ in stages[:-1]))


@dataclass(frozen=True, eq=False)
class PrePost:
    """Pre-selected and post-selected states of one experiment.

    Both must be normalized within NORM_TOL and share a dimension. The
    pre state lives at the timeline's first stage, the post state at
    its last.
    """

    pre: Ket
    post: Ket

    def __post_init__(self):
        if self.pre.dim != self.post.dim:
            raise ScenarioError(
                SCHEMA, f"pre dim {self.pre.dim} differs from post dim {self.post.dim}"
            )
        for name, state in (("pre", self.pre), ("post", self.post)):
            if not state.is_normalized():
                raise ScenarioError(
                    NON_NORMALIZED_STATE, f"{name} state has norm {state.norm():.12g}, expected 1"
                )


@dataclass(frozen=True)
class WeakValueResult:
    """Weak value of one operator at one stage.

    value is numerator/denominator, or None when the postselection
    amplitude (denominator) vanishes within tolerance; degenerate
    records that case.
    """

    site: str | None
    stage: str
    numerator: complex
    denominator: complex
    value: complex | None
    degenerate: bool


@dataclass(frozen=True, eq=False)
class Sweep:
    """Both halves of the two-state vector at every stage of a timeline.

    forward[k] is the pre state carried to stages[k], backward[k] the
    post state dragged back to it; both are read-only (S, d) arrays.
    amplitude, <post|U(t_f, t_i)|pre>, divides every weak value.
    """

    forward: np.ndarray
    backward: np.ndarray
    amplitude: complex


@lru_cache(maxsize=1)
def sweep(tl: Timeline, pp: PrePost) -> Sweep:
    """Evolve pre forward and post backward through every segment once.

    The post state travels as a bra, b_k = b_(k+1) U_k, conjugated once at
    the end. Inputs are immutable and compare by identity, so the latest
    sweep is kept and the rows of one report, asked one at a time, share it.
    """
    if tl.dim != pp.pre.dim:
        raise ContractError(f"timeline dim {tl.dim} vs state dim {pp.pre.dim}")
    forward = np.empty((len(tl.stages), pp.pre.dim), dtype=complex)
    bras = np.empty_like(forward)
    forward[0], bras[-1] = pp.pre.amps, pp.post.amps.conj()
    for k, seg in enumerate(tl.segments):
        forward[k + 1] = seg.matrix @ forward[k]
    for k in range(len(tl.segments) - 1, -1, -1):
        bras[k] = bras[k + 1] @ tl.segments[k].matrix
    backward = bras.conj()
    forward.setflags(write=False)
    backward.setflags(write=False)
    return Sweep(forward, backward, complex(np.vdot(backward[-1], forward[-1])))


def _row(tl: Timeline, pp: PrePost, op: Operator, stage: str, require_projector: bool):
    """(<post(stage)| op |pre(stage)>, the sweep's amplitude) for one table row."""
    if require_projector and not op.is_projector():
        raise ContractError("expected a projector; transition_amplitude takes require_projector=False to override")
    if op.dim != pp.pre.dim:
        raise ContractError(f"operator dim {op.dim} vs state dim {pp.pre.dim}")
    sw, k = sweep(tl, pp), tl.index(stage)
    return complex(np.vdot(sw.backward[k], op.matrix @ sw.forward[k])), sw.amplitude


def transition_amplitude(
    tl: Timeline,
    pp: PrePost,
    op: Operator,
    stage: str,
    *,
    require_projector: bool = True,
) -> complex:
    """Amplitude <post(stage)| op |pre(stage)>.

    op must pass the projector check unless require_projector=False is
    passed explicitly (linear-combination probes need that escape).
    """
    return _row(tl, pp, op, stage, require_projector)[0]


def weak_value(
    tl: Timeline,
    pp: PrePost,
    op: Operator,
    stage: str,
    *,
    site: str | None = None,
    tol: float = DEFAULT_TOLERANCE,
) -> WeakValueResult:
    """Weak value of the projector op at stage for the given pre/post pair."""
    num, den = _row(tl, pp, op, stage, require_projector=True)
    degenerate = abs(den) <= tol
    return WeakValueResult(site, stage, num, den, None if degenerate else num / den, degenerate)


def weak_value_sum(tl: Timeline, pp: PrePost, projectors, stage: str,
                   tol: float = DEFAULT_TOLERANCE) -> complex:
    """Left-to-right sum of the weak values of a sequence of projectors at one stage.

    Raises DegeneratePostselectionError at the first undefined weak value.
    """
    acc = 0j  # plain left-to-right sum; sum() may compensate
    for op in projectors:
        row = weak_value(tl, pp, op, stage, tol=tol)
        if row.degenerate:
            raise DegeneratePostselectionError(f"postselection amplitude vanished at stage {stage!r}")
        acc += row.value
    return acc


def sum_rule_check(
    tl: Timeline,
    pp: PrePost,
    projectors: dict[str, Operator],
    stage: str,
    tol: float = DEFAULT_TOLERANCE,
) -> complex:
    """Sum the weak values of a complete set of projectors at one stage.

    The projectors must resolve the identity within STRUCT_TOL
    (ContractError otherwise); weak_value_sum then sums them. Returns the
    sum, which callers may check against 1.
    """
    if not resolves_identity(projectors.values()):
        raise ContractError(f"projector set {sorted(projectors)} does not resolve the identity")
    return weak_value_sum(tl, pp, projectors.values(), stage, tol)
