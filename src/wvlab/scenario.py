"""Experiment descriptions and their JSON file format.

A Scenario bundles everything one run needs: a timeline of unitary
segments, which fixes the stages and the system dimension, named
projector sites pinned to stages, pre/post states, pointer placements,
declared complete projector sets for sum-rule checks, and the numerical
tolerance. Scenarios validate themselves on construction and are
immutable afterwards. A file entry's keys are the init fields of the
type that builds it; a Site derives its projector from its entry's kind
and data, so a scenario saves and loads as exactly the projectors it
holds. A file's bytes are json.dumps(to_dict(sc), indent=2) plus a
newline, written one array at a time; the checksum hashes the same
writer's text in json's canonical dialect (sorted keys, no spaces).

The built-in family models a three-path interferometer: paths 1..3
propagate freely (identity segments), sites E/F sit on paths 2/3 early,
D on path 1 and the crossing O later, mirrored by E'/F' and the second
crossing O'. Crossings project onto the in-phase combination
(|2>+|3>)/sqrt(2); a rank-2 variant of the crossing projector is
provided for comparing back-action models.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
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
from .pointer import STRONG, WEAK, PointerSpec
from .qcore import (
    DEFAULT_TOLERANCE,
    Ket,
    Operator,
    projector_from_ket,
    resolves_identity,
)
from .twosv import PrePost, Timeline, check_names, identity_timeline

# Reports join the site labels of a click pattern or a sum rule with
# PATTERN_SEP, and text output names the pattern with no clicks
# NO_CLICKS. So a site label may not hold PATTERN_SEP, nor be NO_CLICKS.
# Text output lists the coupling order with ", "; "|" and "=" stay
# reserved so that the set of valid scenario files does not change.
PATTERN_SEP = "+"
NO_CLICKS = "(none)"
RESERVED_LABEL_CHARS = PATTERN_SEP + "|=,"

KIND_KET = "ket"
KIND_MATRIX = "matrix"


@dataclass(frozen=True, eq=False)
class Site:
    """A named projector pinned to a timeline stage, built from its file entry.

    kind says how data defines the projector ("ket": the rank-1 projector
    of a vector, "matrix": the matrix itself); it is derived once, on
    construction.
    """

    label: str
    stage: str
    kind: str
    data: np.ndarray
    projector: Operator = field(init=False, repr=False)

    def __post_init__(self):
        where = f"site {self.label!r}"
        if self.kind == KIND_KET:
            ket = Ket(self.data)
            try:
                proj = projector_from_ket(ket)
            except ContractError as exc:
                raise ScenarioError(NON_PROJECTOR_SITE, f"{where}: {exc}") from None
            data = ket.amps
        elif self.kind == KIND_MATRIX:
            proj = Operator(self.data)
            data = proj.matrix
        else:
            raise ScenarioError(SCHEMA, f"{where} kind must be 'ket' or 'matrix', got {self.kind!r}")
        if not proj.is_projector():
            raise ScenarioError(NON_PROJECTOR_SITE, f"{where} operator is not a projector")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "projector", proj)


@dataclass(frozen=True)
class SumRule:
    """Declared complete projector set: sites whose projectors sum to 1.

    sites is a list or tuple of site labels, stored as a tuple.
    """

    sites: tuple[str, ...]
    stage: str

    def __post_init__(self):
        labels = self.sites
        if not isinstance(labels, (list, tuple)) or not all(isinstance(s, str) for s in labels):
            raise ScenarioError(
                SCHEMA, f"sum rule sites must be a list of site labels, got {labels!r}"
            )
        object.__setattr__(self, "sites", tuple(labels))


@dataclass(frozen=True, eq=False)
class Scenario:
    """One fully specified pre/postselected experiment.

    All invariants are checked at construction; violations raise
    ScenarioError with a stable code and the offending element named.
    The shape (stages, dimension) is the timeline's.
    """

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
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, Real) or not 0 < tol < 1:
            raise ScenarioError(SCHEMA, f"tolerance must be a number in (0, 1), got {tol!r}")
        object.__setattr__(self, "tolerance", float(tol))
        if self.prepost.pre.dim != self.dim:
            raise ScenarioError(
                SCHEMA, f"pre/post dimension {self.prepost.pre.dim} differs from dim {self.dim}"
            )
        check_names((s.label for s in self.sites), "site label", RESERVED_LABEL_CHARS, (NO_CLICKS,))
        by_label = {site.label: site for site in self.sites}
        for site in self.sites:
            if site.stage not in self.timeline.stages:
                raise ScenarioError(
                    UNKNOWN_STAGE, f"site {site.label!r} pinned to unknown stage {site.stage!r}"
                )
            if site.projector.dim != self.dim:
                raise ScenarioError(
                    SCHEMA, f"site {site.label!r} projector has dimension {site.projector.dim}"
                )
        object.__setattr__(self, "_sites_by_label", by_label)
        for ps in self.pointers:
            if ps.site not in by_label:
                raise ScenarioError(UNKNOWN_SITE, f"pointer references undeclared site {ps.site!r}")
        check_names((ps.site for ps in self.pointers), "pointer site")
        for rule in self.sum_rules:
            if rule.stage not in self.timeline.stages:
                raise ScenarioError(UNKNOWN_STAGE, f"sum rule at unknown stage {rule.stage!r}")
            for label in rule.sites:
                if label not in by_label:
                    raise ScenarioError(UNKNOWN_SITE, f"sum rule references undeclared site {label!r}")
            if not resolves_identity(self.site(label).projector for label in rule.sites):
                raise ScenarioError(
                    SCHEMA, f"sum rule {list(rule.sites)} does not resolve the identity"
                )

    @property
    def dim(self) -> int:
        return self.timeline.dim

    def site(self, label: str) -> Site:
        try:
            return self._sites_by_label[label]
        except KeyError:
            raise ScenarioError(UNKNOWN_SITE, f"no site named {label!r}") from None

    def with_overrides(self, tolerance: float | None = None, g: float | None = None) -> Scenario:
        """Copy with a new tolerance and/or weak g, each checked as a file's value is."""
        if tolerance is None and g is None:
            return self
        pointers = self.pointers if g is None else tuple(
            replace(ps, g=g) if ps.kind == WEAK else ps for ps in self.pointers
        )
        tolerance = self.tolerance if tolerance is None else tolerance
        return replace(self, tolerance=tolerance, pointers=pointers)

    @cached_property
    def checksum(self) -> str:
        """SHA-256 of to_dict's canonical JSON, hashed one array's text at a time.

        The canonical JSON is json.dumps(to_dict(sc), sort_keys=True,
        separators=(",", ":")). The file's writer writes it in the
        canonical dialect from the layout, so neither to_dict's [re, im]
        lists nor the whole text is ever held.
        """
        digest = hashlib.sha256()
        for piece in _text_pieces(_layout(self), canonical=True):
            digest.update(piece.encode("utf-8"))
        return digest.hexdigest()


def _three_path(crossing_kind: str, crossing, pointers) -> Scenario:
    """The three-path family; the crossings O and O' are sites of the given kind and data."""
    s3 = 1.0 / np.sqrt(3.0)
    paths = np.eye(3)
    sites = (
        Site("E", "t_1", KIND_KET, paths[1]),
        Site("F", "t_1", KIND_KET, paths[2]),
        Site("D", "t_2", KIND_KET, paths[0]),
        Site("O", "t_2", crossing_kind, crossing),
        Site("E'", "t_3", KIND_KET, paths[1]),
        Site("F'", "t_3", KIND_KET, paths[2]),
        Site("O'", "t_4", crossing_kind, crossing),
    )
    return Scenario(
        timeline=identity_timeline(("t_i", "t_1", "t_2", "t_3", "t_4", "t_f"), 3),
        prepost=PrePost(Ket([s3, s3, s3]), Ket([s3, s3, -s3])),
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
    return _three_path(KIND_KET, [0.0, s2, s2], pointers)


def three_path_rank2_crossing(pointers=()) -> Scenario:
    """Variant modeling crossings as the rank-2 projector onto paths 2+3.

    Gives the same (zero) weak values at O and O' as the rank-1 model
    but different strong-coupling back-action.
    """
    return _three_path(KIND_MATRIX, np.diag([0.0, 1.0, 1.0]), pointers)


# Built-in name -> the kind and the sites of its pointers.
_BUILTINS = {
    "three-path": (STRONG, ()),
    "three-path-fig1": (STRONG, ("D", "O")),
    "three-path-fig1-oprime": (STRONG, ("D", "O", "O'")),
    "three-path-fig2": (STRONG, ("D", "O", "E'", "F'")),
    "three-path-allweak": (WEAK, ("E", "F", "D", "O", "E'", "F'", "O'")),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> Scenario:
    """Look up a built-in scenario by its public name."""
    if name not in _BUILTINS:
        raise ScenarioError(
            SCHEMA, f"unknown built-in scenario {name!r}, choose from {', '.join(BUILTIN_NAMES)}"
        )
    kind, sites = _BUILTINS[name]
    return default_three_path([PointerSpec(site=s, kind=kind) for s in sites])


# --- JSON serialization ---------------------------------------------------


def _pairs(arr: np.ndarray) -> list:
    """[re, im] pairs of a vector, or of a matrix in row-major order."""
    return np.ascontiguousarray(arr, dtype=complex).view(np.float64).reshape(-1, 2).tolist()


def _layout(sc: Scenario, array=lambda arr: arr) -> dict:
    """A scenario's file layout, key order fixed, with each complex array as array(arr)."""
    stages = sc.timeline.stages
    out = {
        "dim": sc.dim,
        "stages": list(stages),
        "segments": [
            {"from": a, "to": b, "matrix": array(seg.matrix)}
            for a, b, seg in zip(stages, stages[1:], sc.timeline.segments)
        ],
        "pre": array(sc.prepost.pre.amps),
        "post": array(sc.prepost.post.amps),
        "sites": [
            {"label": s.label, "stage": s.stage, "kind": s.kind, "data": array(s.data)}
            for s in sc.sites
        ],
        "pointers": [
            {f.name: getattr(ps, f.name) for f in fields(ps) if f.init} for ps in sc.pointers
        ],
    }
    if sc.sum_rules:
        out["sum_rules"] = [{"sites": list(r.sites), "stage": r.stage} for r in sc.sum_rules]
    out["tolerance"] = sc.tolerance
    return out


def to_dict(sc: Scenario) -> dict:
    """Plain-JSON form of a scenario: its layout with each array as [re, im] pairs."""
    return _layout(sc, _pairs)


def _array_text(arr: np.ndarray, pads) -> str:
    """The JSON text of _pairs(arr), pads going before its "]", each pair and each number.

    One %r template per pair, filled from the array's Python floats in
    one C-level pass; repr of a float is exactly what json writes.
    """
    flat = np.ascontiguousarray(arr, dtype=complex).view(np.float64).ravel().tolist()
    outer, pair, num = pads
    template = f"{pair}[{num}%r,{num}%r{pair}]"
    return "[" + ",".join([template] * (len(flat) // 2)) % tuple(flat) + outer + "]"


def _text_pieces(v, canonical: bool, depth: int = 0):
    """The JSON text of a non-empty dict or list v at the given depth in pieces.

    The file's dialect is json.dumps(v, indent=2); the canonical one, of
    the checksum, json.dumps(v, sort_keys=True, separators=(",", ":")).
    Each array is written as its [re, im] pairs in one piece with its
    key, and so is each scalar or empty container, as json's own text.
    """

    def newline(k):
        return "" if canonical else "\n" + "  " * (depth + k)

    if isinstance(v, dict):
        opening, closing, colon = "{", "}", ":" if canonical else ": "
        items = ((json.dumps(k) + colon, v[k]) for k in (sorted(v) if canonical else v))
    else:
        opening, closing, items = "[", "]", (("", x) for x in v)
    pad = newline(1)
    for i, (key, item) in enumerate(items):
        head = ("," if i else opening) + pad + key
        if isinstance(item, np.ndarray):
            yield head + _array_text(item, map(newline, (1, 2, 3)))
        elif isinstance(item, (dict, list)) and item:
            yield head
            yield from _text_pieces(item, canonical, depth + 1)
        else:
            yield head + json.dumps(item)
    yield newline(0) + closing


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


def _is_pair(x) -> bool:
    """Whether x is a [re, im] pair of real numbers that fit a float."""
    if not (isinstance(x, (list, tuple)) and len(x) == 2):
        return False
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x):
        return False
    try:
        float(x[0]), float(x[1])
    except OverflowError:
        return False
    return True


def _parse_array(x, shape: tuple, where: str) -> np.ndarray:
    """A list of [re, im] pairs as a complex array of the given shape."""
    n = math.prod(shape)
    if not isinstance(x, list) or len(x) != n:
        order = "row-major " if len(shape) > 1 else ""
        raise ScenarioError(SCHEMA, f"{where} must be a {order}list of {n} [re, im] pairs")
    # Plain JSON (lists of two ints or floats) converts in one go; any
    # other input is checked pair by pair, naming the first bad pair.
    parts = None
    if set(map(type, x)) <= {list} and set(map(len, x)) <= {2}:
        flat = list(itertools.chain.from_iterable(x))
        if set(map(type, flat)) <= {int, float}:
            try:
                parts = np.array(flat, dtype=float)
            except OverflowError:
                pass
    if parts is None:
        for i, p in enumerate(x):
            if not _is_pair(p):
                raise ScenarioError(SCHEMA, f"{where}[{i}] must be a [re, im] pair, got {p!r}")
        parts = np.array([v for p in x for v in p], dtype=float)
    arr = parts.view(complex)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ScenarioError(SCHEMA, f"{where}[{bad[0]}] is not finite")
    return arr.reshape(shape)


_TOP_KEYS = frozenset(
    {"dim", "stages", "segments", "pre", "post", "sites", "pointers", "sum_rules", "tolerance"}
)
_SEGMENT_KEYS = frozenset({"from", "to", "matrix"})


def _init_keys(cls) -> frozenset:
    """The file keys of an entry: the init fields of the type it builds."""
    return frozenset(f.name for f in fields(cls) if f.init)


_SITE_KEYS = _init_keys(Site)
_POINTER_KEYS = _init_keys(PointerSpec)
_SUM_RULE_KEYS = _init_keys(SumRule)
# Array rank of a site's data, per kind.
_SITE_NDIM = {KIND_KET: 1, KIND_MATRIX: 2}


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
    # Segments are keyed by stage name below, so the names are checked first.
    stages = check_names(_want(d, "stages", list, "scenario"), "stage name")
    # States first: their length check bounds dim before anything of
    # that size is built.
    pre, post = (_parse_array(_want(d, k, list, "scenario"), (dim,), k) for k in ("pre", "post"))

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
        segments[k] = Operator(mat)
    for k, seg in enumerate(segments):
        if seg is None:
            raise ScenarioError(SCHEMA, f"segment {stages[k]}->{stages[k + 1]} is missing")
    timeline = Timeline(stages, tuple(segments))
    prepost = PrePost(Ket(pre), Ket(post))

    sites = []
    for where, entry in _items(d, "sites", _SITE_KEYS):
        label = _want(entry, "label", str, where)
        stage = _want(entry, "stage", str, where)
        kind = _want(entry, "kind", str, where)
        where = f"site {label!r}"
        # An unknown kind has no shape; Site refuses it before reading data.
        ndim = _SITE_NDIM.get(kind)
        data = None if ndim is None else _parse_array(
            _want(entry, "data", list, where), (dim,) * ndim, f"{where} data"
        )
        sites.append(Site(label, stage, kind, data))

    pointers = [
        PointerSpec(
            site=_want(entry, "site", str, where),
            kind=_want(entry, "kind", str, where),
            **{k: v for k, v in entry.items() if k not in ("site", "kind")},
        )
        for where, entry in _items(d, "pointers", _POINTER_KEYS, required=False)
    ]

    rules = [
        SumRule(_want(entry, "sites", list, where), _want(entry, "stage", str, where))
        for where, entry in _items(d, "sum_rules", _SUM_RULE_KEYS, required=False)
    ]

    return Scenario(
        timeline=timeline,
        prepost=prepost,
        sites=tuple(sites),
        pointers=tuple(pointers),
        sum_rules=tuple(rules),
        tolerance=d.get("tolerance", DEFAULT_TOLERANCE),
    )


def dumps(sc: Scenario) -> str:
    """Exactly json.dumps(to_dict(sc), indent=2), built one array at a time."""
    return "".join(_text_pieces(_layout(sc), canonical=False))


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, rejecting a key given twice."""
    out = {}
    for key, val in pairs:
        if key in out:
            raise ScenarioError(SCHEMA, f"key {key!r} appears twice in one object")
        out[key] = val
    return out


def _parse(text: str):
    """The JSON value of text, with repeated keys and bad syntax refused as schema errors."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # ValueError covers syntax errors and integer literals too long
        # to convert; RecursionError, nesting too deep to parse.
        raise ScenarioError(SCHEMA, f"not valid JSON: {exc}") from exc


def loads(text: str) -> Scenario:
    """Parse a scenario from JSON text."""
    return from_dict(_parse(text))


def save(sc: Scenario, path) -> None:
    """Write sc to path as UTF-8 JSON: exactly the bytes of dumps(sc) + "\n".

    The text is streamed to the file one array at a time; neither the
    whole text nor to_dict's pairs are ever held.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_text_pieces(_layout(sc), canonical=False))
        fh.write("\n")


def load(path) -> Scenario:
    """Load a scenario from the UTF-8 file at path; JSON text parses as in loads.

    The text is dropped once parsed, so while from_dict builds, the
    parsed entries are held but the text is not. I/O errors propagate as
    OSError; a file that is not UTF-8 is a schema error.
    """
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(SCHEMA, f"not valid UTF-8: {exc}") from exc
    data = _parse(text)
    del text
    return from_dict(data)


def resolve(source: str) -> Scenario:
    """Resolve a CLI-style source: "builtin:NAME" or a file path.

    Anything that is not "builtin:NAME" is opened as a path, whatever
    its first character.
    """
    if source.startswith("builtin:"):
        return builtin(source[len("builtin:") :])
    return load(source)
