"""Two-state-vector engine: timelines, transition amplitudes, weak values.

A Timeline is an ordered list of stages connected by unitary segments.
A system is prepared in a pre-selected state at the first stage and
postselected at the last. The transition amplitude through an operator
A at stage t is

    tau = <post(t)| A |pre(t)>

with |pre(t)> evolved forward from the first stage and <post(t)| the
postselection state dragged back from the last. Weak values divide tau
by the bare pre-to-post amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NON_NORMALIZED_STATE,
    NON_UNITARY_SEGMENT,
    SCHEMA,
    ContractError,
    DegeneratePostselectionError,
    DimensionMismatchError,
    ScenarioError,
)
from .qcore import DEFAULT_TOLERANCE, Ket, Operator, apply, identity, inner, resolves_identity


@dataclass(frozen=True, eq=False)
class Timeline:
    """Named stages joined by unitary segments.

    segments[k] carries states from stages[k] to stages[k+1]. Each
    segment, and their composition, must be unitary within STRUCT_TOL;
    a broken invariant raises ScenarioError.
    """

    stages: tuple[str, ...]
    segments: tuple[Operator, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(str(s) for s in self.stages))
        object.__setattr__(self, "segments", tuple(self.segments))
        if len(self.stages) < 1:
            raise ScenarioError(SCHEMA, "timeline needs at least one stage")
        if len(set(self.stages)) != len(self.stages):
            raise ScenarioError(SCHEMA, f"duplicate stage names in {self.stages!r}")
        if len(self.segments) != len(self.stages) - 1:
            raise ScenarioError(
                SCHEMA,
                f"{len(self.stages)} stages need {len(self.stages) - 1} segments, "
                f"got {len(self.segments)}",
            )
        dims = {seg.dim for seg in self.segments}
        if len(dims) > 1:
            raise DimensionMismatchError(f"segments of mixed dimension {sorted(dims)}")
        for k, seg in enumerate(self.segments):
            if not seg.is_unitary():
                raise ScenarioError(
                    NON_UNITARY_SEGMENT,
                    f"segment {self.stages[k]}->{self.stages[k + 1]} is not unitary",
                )
        if self.segments:
            total = np.eye(self.segments[0].dim, dtype=complex)
            for seg in self.segments:
                total = seg.matrix @ total
            if not Operator(total, self.segments[0].labels).is_unitary():
                raise ScenarioError(
                    NON_UNITARY_SEGMENT, "composed timeline evolution is not unitary"
                )

    @property
    def dim(self) -> int:
        if not self.segments:
            raise ContractError("timeline with a single stage has no intrinsic dimension")
        return self.segments[0].dim

    @property
    def initial(self) -> str:
        return self.stages[0]

    @property
    def final(self) -> str:
        return self.stages[-1]

    def index(self, stage: str) -> int:
        try:
            return self.stages.index(stage)
        except ValueError:
            raise ContractError(f"unknown stage {stage!r}, timeline has {self.stages}") from None


def identity_timeline(stages, dim: int, labels=None) -> Timeline:
    """Timeline whose segments all do nothing."""
    stages = tuple(stages)
    return Timeline(stages, tuple(identity(dim, labels) for _ in stages[:-1]))


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
            raise DimensionMismatchError(
                f"pre dim {self.pre.dim} differs from post dim {self.post.dim}"
            )
        for name, state in (("pre", self.pre), ("post", self.post)):
            if not state.is_normalized():
                raise ScenarioError(
                    NON_NORMALIZED_STATE, f"{name} state has norm {state.norm():.12g}, expected 1"
                )


def evolve(tl: Timeline, kt: Ket, frm: str, to: str) -> Ket:
    """Carry a ket forward along the timeline from stage frm to stage to."""
    i, j = tl.index(frm), tl.index(to)
    if i > j:
        raise ContractError(f"evolve runs forward only, got {frm!r} after {to!r}")
    out = kt
    for k in range(i, j):
        out = apply(tl.segments[k], out)
    return out


def retrodicted(tl: Timeline, post: Ket, stage: str) -> Ket:
    """Drag the postselection state back from the final stage to stage."""
    j = tl.index(stage)
    out = post
    for k in range(len(tl.segments) - 1, j - 1, -1):
        out = apply(tl.segments[k].adjoint(), out)
    return out


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
    if require_projector and not op.is_projector():
        raise ContractError("transition_amplitude expects a projector; pass require_projector=False to override")
    if op.dim != pp.pre.dim:
        raise DimensionMismatchError(f"operator dim {op.dim} vs state dim {pp.pre.dim}")
    fwd = evolve(tl, pp.pre, tl.initial, stage)
    back = retrodicted(tl, pp.post, stage)
    return inner(back, apply(op, fwd))


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


def weak_value(
    tl: Timeline,
    pp: PrePost,
    op: Operator,
    stage: str,
    *,
    site: str | None = None,
    tol: float = DEFAULT_TOLERANCE,
    require_projector: bool = True,
) -> WeakValueResult:
    """Weak value of op at stage for the given pre/post pair."""
    num = transition_amplitude(tl, pp, op, stage, require_projector=require_projector)
    den = transition_amplitude(
        tl, pp, identity(pp.pre.dim, pp.pre.labels), stage, require_projector=False
    )
    degenerate = abs(den) <= tol
    return WeakValueResult(
        site=site,
        stage=stage,
        numerator=num,
        denominator=den,
        value=None if degenerate else num / den,
        degenerate=degenerate,
    )


def sum_weak_values(
    tl: Timeline, pp: PrePost, projectors, stage: str, tol: float = DEFAULT_TOLERANCE
) -> complex:
    """Sum the weak values of (name, projector) pairs at one stage.

    Raises DegeneratePostselectionError when the weak values are
    undefined.
    """
    acc = 0.0 + 0.0j
    for name, op in projectors:
        res = weak_value(tl, pp, op, stage, site=name, tol=tol)
        if res.degenerate:
            raise DegeneratePostselectionError(
                f"postselection amplitude vanished at stage {stage!r}"
            )
        acc += res.value
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
    (ContractError otherwise). Raises DegeneratePostselectionError when
    the weak values are undefined. Returns the sum, which callers may
    check against 1.
    """
    if not resolves_identity(projectors.values()):
        raise ContractError(f"projector set {sorted(projectors)} does not resolve the identity")
    return sum_weak_values(tl, pp, projectors.items(), stage, tol)
