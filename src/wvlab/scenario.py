"""Experiment descriptions and their JSON file format.

A Scenario bundles everything one run needs: system dimension, a
timeline of unitary segments, named projector sites pinned to stages,
pre/post states, pointer placements, declared complete projector sets
for sum-rule checks, and the numerical tolerance. Scenarios validate
themselves on construction and are immutable afterwards.

The built-in family models a three-path interferometer: paths 1..3
propagate freely (identity segments), sites E/F sit on paths 2/3 early,
D on path 1 and the crossing O later, mirrored by E'/F' and the second
crossing O'. Crossings project onto the in-phase combination
(|2>+|3>)/sqrt(2); a rank-2 variant of the crossing projector is
provided for comparing back-action models.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .errors import (
    NON_PROJECTOR_SITE,
    SCHEMA,
    UNKNOWN_SITE,
    UNKNOWN_STAGE,
    ContractError,
    ScenarioError,
)
from .pointer import WEAK, PointerSpec
from .qcore import (
    DEFAULT_TOLERANCE,
    Ket,
    Operator,
    basis_ket,
    identity,
    ket,
    operator,
    projector_from_ket,
    resolves_identity,
)
from .twosv import PrePost, Timeline, identity_timeline, transition_amplitude

# Separators used by labels in reports and composite basis names.
RESERVED_LABEL_CHARS = "+|=,"

KIND_KET = "ket"
KIND_MATRIX = "matrix"


@dataclass(frozen=True, eq=False)
class Site:
    """A named projector pinned to a timeline stage.

    kind/data record how the projector was defined ("ket": rank-1 from
    a vector, "matrix": explicit) so files round-trip exactly.
    """

    label: str
    stage: str
    projector: Operator
    kind: str
    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)


def site_from_ket(label: str, stage: str, u: Ket) -> Site:
    try:
        proj = projector_from_ket(u)
    except ContractError as exc:
        raise ScenarioError(NON_PROJECTOR_SITE, f"site {label!r}: {exc}") from None
    return Site(label=label, stage=stage, projector=proj, kind=KIND_KET, data=u.amps)


def site_from_matrix(label: str, stage: str, proj: Operator) -> Site:
    return Site(label=label, stage=stage, projector=proj, kind=KIND_MATRIX, data=proj.matrix)


@dataclass(frozen=True)
class SumRule:
    """Declared complete projector set: sites whose projectors sum to 1."""

    sites: tuple[str, ...]
    stage: str


@dataclass(frozen=True, eq=False)
class Scenario:
    """One fully specified pre/postselected experiment.

    System basis directions are named "1".."dim". All invariants are
    checked at construction; violations raise ScenarioError with a
    stable code and the offending element named.
    """

    dim: int
    timeline: Timeline
    prepost: PrePost
    sites: tuple[Site, ...]
    pointers: tuple[PointerSpec, ...] = ()
    sum_rules: tuple[SumRule, ...] = ()
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "pointers", tuple(self.pointers))
        object.__setattr__(self, "sum_rules", tuple(self.sum_rules))
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ScenarioError(SCHEMA, f"dim must be a positive integer, got {self.dim!r}")
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, Real) or not 0 < tol < 1:
            raise ScenarioError(SCHEMA, f"tolerance must be a number in (0, 1), got {tol!r}")
        object.__setattr__(self, "tolerance", float(tol))
        if len(self.timeline.stages) < 2:
            raise ScenarioError(SCHEMA, "timeline needs at least two stages")
        if self.timeline.dim != self.dim:
            raise ScenarioError(
                SCHEMA, f"timeline dimension {self.timeline.dim} differs from dim {self.dim}"
            )
        if self.prepost.pre.dim != self.dim:
            raise ScenarioError(
                SCHEMA, f"pre/post dimension {self.prepost.pre.dim} differs from dim {self.dim}"
            )
        seen = set()
        for site in self.sites:
            if not site.label or any(c in site.label for c in RESERVED_LABEL_CHARS):
                raise ScenarioError(
                    SCHEMA, f"site label {site.label!r} is empty or uses a reserved character"
                )
            if site.label in seen:
                raise ScenarioError(SCHEMA, f"duplicate site label {site.label!r}")
            seen.add(site.label)
            if site.stage not in self.timeline.stages:
                raise ScenarioError(
                    UNKNOWN_STAGE, f"site {site.label!r} pinned to unknown stage {site.stage!r}"
                )
            if site.projector.dim != self.dim:
                raise ScenarioError(
                    SCHEMA, f"site {site.label!r} projector has dimension {site.projector.dim}"
                )
            if not site.projector.is_projector():
                raise ScenarioError(
                    NON_PROJECTOR_SITE, f"site {site.label!r} operator is not a projector"
                )
        pointer_sites = set()
        for ps in self.pointers:
            if ps.site not in seen:
                raise ScenarioError(UNKNOWN_SITE, f"pointer references undeclared site {ps.site!r}")
            if ps.site in pointer_sites:
                raise ScenarioError(SCHEMA, f"two pointers at site {ps.site!r}")
            pointer_sites.add(ps.site)
        for rule in self.sum_rules:
            if rule.stage not in self.timeline.stages:
                raise ScenarioError(UNKNOWN_STAGE, f"sum rule at unknown stage {rule.stage!r}")
            for label in rule.sites:
                if label not in seen:
                    raise ScenarioError(UNKNOWN_SITE, f"sum rule references undeclared site {label!r}")
            if not resolves_identity(self.site(label).projector for label in rule.sites):
                raise ScenarioError(
                    SCHEMA, f"sum rule {list(rule.sites)} does not resolve the identity"
                )

    @property
    def system_labels(self) -> tuple[str, ...]:
        return tuple(str(i + 1) for i in range(self.dim))

    def site(self, label: str) -> Site:
        for s in self.sites:
            if s.label == label:
                return s
        raise ScenarioError(UNKNOWN_SITE, f"no site named {label!r}")

    def postselection_amplitude(self) -> complex:
        return transition_amplitude(
            self.timeline,
            self.prepost,
            identity(self.dim, self.system_labels),
            self.timeline.final,
            require_projector=False,
        )

    def is_degenerate(self) -> bool:
        return abs(self.postselection_amplitude()) <= self.tolerance

    def with_overrides(self, tolerance: float | None = None, g: float | None = None) -> Scenario:
        """Copy with a new tolerance and/or weak coupling strength g."""
        out = self
        if tolerance is not None:
            out = replace(out, tolerance=float(tolerance))
        if g is not None:
            new_pointers = tuple(
                replace(ps, g=float(g)) if ps.kind == WEAK else ps for ps in out.pointers
            )
            out = replace(out, pointers=new_pointers)
        return out

    @property
    def checksum(self) -> str:
        canonical = json.dumps(to_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_PATH_LABELS = ("1", "2", "3")


def _three_path(crossing_site, pointers) -> Scenario:
    """The three-path family; crossing_site(label, stage) builds O and O'."""
    s3 = 1.0 / np.sqrt(3.0)

    def path(label: str, stage: str, index: int) -> Site:
        return site_from_ket(label, stage, basis_ket(3, index, _PATH_LABELS))

    sites = (
        path("E", "t_1", 1),
        path("F", "t_1", 2),
        path("D", "t_2", 0),
        crossing_site("O", "t_2"),
        path("E'", "t_3", 1),
        path("F'", "t_3", 2),
        crossing_site("O'", "t_4"),
    )
    return Scenario(
        dim=3,
        timeline=identity_timeline(("t_i", "t_1", "t_2", "t_3", "t_4", "t_f"), 3, _PATH_LABELS),
        prepost=PrePost(ket([s3, s3, s3], _PATH_LABELS), ket([s3, s3, -s3], _PATH_LABELS)),
        sites=sites,
        pointers=tuple(pointers),
        sum_rules=(SumRule(("D", "E", "F"), "t_1"), SumRule(("D", "E'", "F'"), "t_3")),
    )


def default_three_path(pointers=()) -> Scenario:
    """Reference three-path scenario with rank-1 crossing projectors.

    Paths are prepared in an equal superposition and postselected on
    (|1>+|2>-|3>)/sqrt(3). Sites: E/F on paths 2/3 at t_1, D on path 1
    and crossing O at t_2, E'/F' at t_3, second crossing O' at t_4.
    Crossings project onto (|2>+|3>)/sqrt(2).
    """
    s2 = 1.0 / np.sqrt(2.0)
    crossing = ket([0.0, s2, s2], _PATH_LABELS)
    return _three_path(lambda label, stage: site_from_ket(label, stage, crossing), pointers)


def three_path_rank2_crossing(pointers=()) -> Scenario:
    """Variant modeling crossings as the rank-2 projector onto paths 2+3.

    Gives the same (zero) weak values at O and O' as the rank-1 model
    but different strong-coupling back-action.
    """
    both = operator(np.diag([0.0, 1.0, 1.0]), _PATH_LABELS)
    return _three_path(lambda label, stage: site_from_matrix(label, stage, both), pointers)


def _strong(*sites: str) -> tuple[PointerSpec, ...]:
    return tuple(PointerSpec(site=s, kind="strong") for s in sites)


def _all_weak(g: float = 0.01) -> tuple[PointerSpec, ...]:
    order = ("E", "F", "D", "O", "E'", "F'", "O'")
    return tuple(PointerSpec(site=s, kind="weak", g=g) for s in order)


BUILTIN_NAMES = (
    "three-path",
    "three-path-fig1",
    "three-path-fig1-oprime",
    "three-path-fig2",
    "three-path-allweak",
)


def builtin(name: str) -> Scenario:
    """Look up a built-in scenario by its public name."""
    if name == "three-path":
        return default_three_path()
    if name == "three-path-fig1":
        return default_three_path(_strong("D", "O"))
    if name == "three-path-fig1-oprime":
        return default_three_path(_strong("D", "O", "O'"))
    if name == "three-path-fig2":
        return default_three_path(_strong("D", "O", "E'", "F'"))
    if name == "three-path-allweak":
        return default_three_path(_all_weak())
    raise ScenarioError(
        SCHEMA, f"unknown built-in scenario {name!r}, choose from {', '.join(BUILTIN_NAMES)}"
    )


# --- JSON serialization ---------------------------------------------------


def _pairs(arr: np.ndarray) -> list:
    """[re, im] pairs of a vector, or of a matrix in row-major order."""
    return [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]


def to_dict(sc: Scenario) -> dict:
    """Plain-JSON form of a scenario, key order fixed."""
    segments = []
    for k, seg in enumerate(sc.timeline.segments):
        segments.append(
            {
                "from": sc.timeline.stages[k],
                "to": sc.timeline.stages[k + 1],
                "matrix": _pairs(seg.matrix),
            }
        )
    sites = []
    for s in sc.sites:
        sites.append({"label": s.label, "stage": s.stage, "kind": s.kind, "data": _pairs(s.data)})
    pointers = []
    for ps in sc.pointers:
        pointers.append(
            {
                "site": ps.site,
                "kind": ps.kind,
                "g": float(ps.g),
                "sigma": float(ps.sigma),
                "grid_size": int(ps.grid_size),
                "grid_extent": float(ps.grid_extent),
            }
        )
    out = {
        "dim": sc.dim,
        "stages": list(sc.timeline.stages),
        "segments": segments,
        "pre": _pairs(sc.prepost.pre.amps),
        "post": _pairs(sc.prepost.post.amps),
        "sites": sites,
        "pointers": pointers,
    }
    if sc.sum_rules:
        out["sum_rules"] = [{"sites": list(r.sites), "stage": r.stage} for r in sc.sum_rules]
    out["tolerance"] = sc.tolerance
    return out


def _object(x, where: str, keys: frozenset) -> dict:
    """x itself, once it is a JSON object holding no key outside keys."""
    if not isinstance(x, dict):
        raise ScenarioError(SCHEMA, f"{where} must be an object")
    for key in x:
        if key not in keys:
            raise ScenarioError(SCHEMA, f"{where} has unknown key {key!r}")
    return x


def _want(d: dict, key: str, types, where: str):
    if key not in d:
        raise ScenarioError(SCHEMA, f"{where} is missing required key {key!r}")
    val = d[key]
    if isinstance(val, bool) or not isinstance(val, types):
        raise ScenarioError(SCHEMA, f"{where}.{key} has the wrong type")
    return val


def _parse_pair(x, where: str) -> complex:
    if (
        isinstance(x, (list, tuple))
        and len(x) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x)
    ):
        try:
            return complex(float(x[0]), float(x[1]))
        except OverflowError:
            pass
    raise ScenarioError(SCHEMA, f"{where} must be a [re, im] pair, got {x!r}")


def _parse_array(x, shape: tuple, where: str) -> np.ndarray:
    """A list of [re, im] pairs as a complex array of the given shape."""
    n = math.prod(shape)
    if not isinstance(x, list) or len(x) != n:
        order = "row-major " if len(shape) > 1 else ""
        raise ScenarioError(SCHEMA, f"{where} must be a {order}list of {n} [re, im] pairs")
    arr = np.array([_parse_pair(p, f"{where}[{i}]") for i, p in enumerate(x)], dtype=complex)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ScenarioError(SCHEMA, f"{where}[{bad[0]}] is not finite")
    return arr.reshape(shape)


_TOP_KEYS = frozenset(
    {"dim", "stages", "segments", "pre", "post", "sites", "pointers", "sum_rules", "tolerance"}
)
_SEGMENT_KEYS = frozenset({"from", "to", "matrix"})
_SITE_KEYS = frozenset({"label", "stage", "kind", "data"})
_POINTER_KEYS = frozenset({"site", "kind", "g", "sigma", "grid_size", "grid_extent"})
_SUM_RULE_KEYS = frozenset({"sites", "stage"})


def _items(d: dict, key: str, keys: frozenset, required: bool = True):
    """(where, entry) for each object in the list d[key]."""
    raw = _want(d, key, list, "scenario") if required else d.get(key, [])
    if not isinstance(raw, list):
        raise ScenarioError(SCHEMA, f"{key} must be a list")
    return [(f"{key}[{i}]", _object(x, f"{key}[{i}]", keys)) for i, x in enumerate(raw)]


def from_dict(d: dict) -> Scenario:
    """Parse a Scenario from its plain-JSON form.

    Parsing checks shapes, types and finiteness only; the invariants
    (unitarity, normalization, projectors, references, sum rules) are
    checked by the types that own them and raise coded ScenarioErrors.
    """
    _object(d, "scenario", _TOP_KEYS)
    dim = _want(d, "dim", int, "scenario")
    if dim < 1:
        raise ScenarioError(SCHEMA, f"dim must be a positive integer, got {dim!r}")
    stages = _want(d, "stages", list, "scenario")
    if not all(isinstance(s, str) and s for s in stages):
        raise ScenarioError(SCHEMA, "stages must be a list of non-empty names")
    # States first: their length check bounds dim before anything of
    # that size is built.
    pre, post = (_parse_array(_want(d, k, list, "scenario"), (dim,), k) for k in ("pre", "post"))
    labels = tuple(str(i + 1) for i in range(dim))

    joins = {(a, b): k for k, (a, b) in enumerate(zip(stages, stages[1:]))}
    segments = [None] * max(len(stages) - 1, 0)
    for where, entry in _items(d, "segments", _SEGMENT_KEYS):
        frm, to = _want(entry, "from", str, where), _want(entry, "to", str, where)
        name = f"segment {frm}->{to}"
        k = joins.get((frm, to))
        if k is None:
            raise ScenarioError(SCHEMA, f"{name} does not join consecutive stages")
        if segments[k] is not None:
            raise ScenarioError(SCHEMA, f"{name} appears twice")
        mat = _parse_array(_want(entry, "matrix", list, name), (dim, dim), f"{name} matrix")
        segments[k] = operator(mat, labels)
    for k, seg in enumerate(segments):
        if seg is None:
            raise ScenarioError(SCHEMA, f"segment {stages[k]}->{stages[k + 1]} is missing")
    timeline = Timeline(tuple(stages), tuple(segments))
    prepost = PrePost(ket(pre, labels), ket(post, labels))

    sites = []
    for where, entry in _items(d, "sites", _SITE_KEYS):
        label = _want(entry, "label", str, where)
        stage = _want(entry, "stage", str, where)
        kind = _want(entry, "kind", str, where)
        where = f"site {label!r}"
        if kind == KIND_KET:
            vec = _parse_array(_want(entry, "data", list, where), (dim,), f"{where} data")
            sites.append(site_from_ket(label, stage, ket(vec, labels)))
        elif kind == KIND_MATRIX:
            mat = _parse_array(_want(entry, "data", list, where), (dim, dim), f"{where} data")
            sites.append(site_from_matrix(label, stage, operator(mat, labels)))
        else:
            raise ScenarioError(SCHEMA, f"{where} kind must be 'ket' or 'matrix', got {kind!r}")

    pointers = [
        PointerSpec(
            site=_want(entry, "site", str, where),
            kind=_want(entry, "kind", str, where),
            **{k: v for k, v in entry.items() if k not in ("site", "kind")},
        )
        for where, entry in _items(d, "pointers", _POINTER_KEYS, required=False)
    ]

    rules = []
    for where, entry in _items(d, "sum_rules", _SUM_RULE_KEYS, required=False):
        rsites = _want(entry, "sites", list, where)
        if not all(isinstance(s, str) for s in rsites):
            raise ScenarioError(SCHEMA, f"{where}.sites must be site labels")
        rules.append(SumRule(tuple(rsites), _want(entry, "stage", str, where)))

    return Scenario(
        dim=dim,
        timeline=timeline,
        prepost=prepost,
        sites=tuple(sites),
        pointers=tuple(pointers),
        sum_rules=tuple(rules),
        tolerance=d.get("tolerance", DEFAULT_TOLERANCE),
    )


def dumps(sc: Scenario) -> str:
    return json.dumps(to_dict(sc), indent=2)


def loads(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers syntax errors and integer literals too long
        # to convert; RecursionError, nesting too deep to parse.
        raise ScenarioError(SCHEMA, f"not valid JSON: {exc}") from exc
    return from_dict(data)


def save(sc: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(sc) + "\n")


def load(source) -> Scenario:
    """Load a scenario from a file path or a JSON string.

    Strings starting with "{" are parsed directly; anything else is
    treated as a path. I/O errors propagate as OSError.
    """
    text = str(source)
    if text.lstrip().startswith("{"):
        return loads(text)
    with open(os.fspath(source), "r", encoding="utf-8") as fh:
        return loads(fh.read())


def resolve(source: str) -> Scenario:
    """Resolve a CLI-style source: "builtin:NAME" or a file path."""
    if source.startswith("builtin:"):
        return builtin(source[len("builtin:") :])
    return load(source)
