"""Experiment execution: weak-value tables, pointer runs, disturbance.

Each run is a pure function of a Scenario and produces a RunReport.
Reports serialize to a schema-stable JSON dict with fixed top-level
keys (scenario, weak_values, postselection_probability, clicks,
patterns, weak_stats, disturbance, tolerance) and read back losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .pointer import (
    STRONG,
    WeakPointerStats,
    click_readout,
    couple_strong,
    couple_weak,
    initial_state,
    pattern_amplitudes,
    postselect,
)
from .qcore import PATTERN_FLOOR, ket
from .scenario import Scenario, Site
from .twosv import WeakValueResult, sum_weak_values, transition_amplitude, weak_value

PATTERN_SEP = "+"


@dataclass(frozen=True)
class SumRuleResult:
    """Summed weak values of one declared complete projector set."""

    sites: tuple[str, ...]
    stage: str
    total: complex


@dataclass(frozen=True, eq=False)
class DisturbanceRow:
    """Disturbance analysis of one site with a vanishing amplitude.

    branches holds, per strong click pattern, the postselected branch
    amplitude that survives once the scenario's pointers act (entries
    above tolerance only; the amplitude is a branch norm when weak
    registers are present). disturbed = any surviving branch.
    """

    site: str
    stage: str
    undisturbed: complex
    branches: dict[tuple[str, ...], complex]
    disturbed: bool


@dataclass(frozen=True, eq=False)
class RunReport:
    """Everything one analysis produced, ready for rendering.

    patterns maps tuples of clicked strong sites (register order) to
    joint conditional probabilities; their values are model-derived,
    not quoted from elsewhere, and numerically-zero patterns are
    omitted. coupling_order records the order in which pointer
    couplings were applied.
    """

    checksum: str
    dim: int
    stages: tuple[str, ...]
    coupling_order: tuple[str, ...]
    tolerance: float
    weak_values: tuple[WeakValueResult, ...]
    sum_rules: tuple[SumRuleResult, ...]
    postselection_probability: float
    degenerate: bool
    clicks: dict[str, float]
    patterns: dict[tuple[str, ...], float]
    weak_stats: dict[str, WeakPointerStats]
    disturbance: tuple[DisturbanceRow, ...]


def _weak_value_rows(sc: Scenario) -> tuple[WeakValueResult, ...]:
    return tuple(
        weak_value(
            sc.timeline, sc.prepost, site.projector, site.stage, site=site.label, tol=sc.tolerance
        )
        for site in sc.sites
    )


def _base_report(sc: Scenario, **sections) -> RunReport:
    amp = sc.postselection_amplitude()
    degenerate = abs(amp) <= sc.tolerance
    sum_rules = tuple(
        SumRuleResult(
            sites=rule.sites,
            stage=rule.stage,
            total=sum_weak_values(
                sc.timeline,
                sc.prepost,
                [(label, sc.site(label).projector) for label in rule.sites],
                rule.stage,
                sc.tolerance,
            ),
        )
        for rule in (() if degenerate else sc.sum_rules)
    )
    defaults = dict(
        checksum=sc.checksum,
        dim=sc.dim,
        stages=sc.timeline.stages,
        coupling_order=(),
        tolerance=sc.tolerance,
        weak_values=_weak_value_rows(sc),
        sum_rules=sum_rules,
        postselection_probability=float(abs(amp) ** 2),
        degenerate=degenerate,
        clicks={},
        patterns={},
        weak_stats={},
        disturbance=(),
    )
    defaults.update(sections)
    return RunReport(**defaults)


def run_weak_values(sc: Scenario) -> RunReport:
    """Weak value for every declared site, plus declared sum rules.

    Pointers do not enter: weak values describe the undisturbed
    scenario. A degenerate postselection is flagged, not fatal.
    """
    return _base_report(sc)


def _simulate(sc: Scenario, insert: Site | None = None):
    """Run the coupling pipeline, optionally projecting the system
    through insert's projector right before that stage's couplings."""
    system = ket(sc.prepost.pre.amps, sc.system_labels)
    state = initial_state(system, sc.pointers)
    order = []
    for k, stage in enumerate(sc.timeline.stages):
        if k > 0:
            state = state.apply_system(sc.timeline.segments[k - 1])
        if insert is not None and insert.stage == stage:
            state = state.apply_system(insert.projector)
        for ps in sc.pointers:
            if sc.site(ps.site).stage != stage:
                continue
            proj = sc.site(ps.site).projector
            if ps.kind == STRONG:
                state = couple_strong(state, proj, ps.site)
            else:
                state = couple_weak(state, proj, ps.site)
            order.append(ps.site)
    result = postselect(state, sc.prepost.post, tol=sc.tolerance)
    return result, tuple(order)


def run_pointers(sc: Scenario) -> RunReport:
    """Couple every declared pointer in stage order and read out.

    Couplings at the same stage run in declaration order (recorded in
    the report). When postselection is degenerate the report carries
    probability ~0 and no conditional statistics.
    """
    if not sc.pointers:
        raise ContractError("run_pointers needs a scenario with at least one pointer")
    result, order = _simulate(sc)
    sections = dict(
        coupling_order=order,
        postselection_probability=result.probability,
        degenerate=result.degenerate,
    )
    if not result.degenerate:
        stats = click_readout(result.conditional)
        patterns = {p: v for p, v in stats.patterns.items() if v > PATTERN_FLOOR}
        sections.update(clicks=stats.strong, patterns=patterns, weak_stats=stats.weak)
    return _base_report(sc, **sections)


def disturbance_rows(sc: Scenario) -> tuple[DisturbanceRow, ...]:
    """One row per site whose undisturbed transition amplitude vanishes.

    Each row reruns the full pointer pipeline with the system projected
    through that site, then collects the branch amplitudes that survive
    postselection per strong click pattern. Without pointers the single
    branch amplitude is the inserted-projector transition amplitude
    itself, so all flags stay false.
    """
    rows = []
    for site in sc.sites:
        tau = transition_amplitude(sc.timeline, sc.prepost, site.projector, site.stage)
        if abs(tau) > sc.tolerance:
            continue
        result, _ = _simulate(sc, insert=site)
        amps = pattern_amplitudes(result.unnormalized)
        branches = {pat: amp for pat, amp in amps.items() if abs(amp) > sc.tolerance}
        rows.append(
            DisturbanceRow(
                site=site.label,
                stage=site.stage,
                undisturbed=tau,
                branches=branches,
                disturbed=bool(branches),
            )
        )
    return tuple(rows)


def disturbance_table(sc: Scenario) -> RunReport:
    """Weak-value report extended with the disturbance analysis."""
    return _base_report(sc, disturbance=disturbance_rows(sc))


# --- report serialization ---------------------------------------------------


def _pair(z: complex) -> list:
    z = complex(z)
    return [float(z.real) + 0.0, float(z.imag) + 0.0]


def _pattern_key(pattern: tuple[str, ...]) -> str:
    return PATTERN_SEP.join(pattern)


def _pattern_from_key(key: str) -> tuple[str, ...]:
    return tuple(key.split(PATTERN_SEP)) if key else ()


def report_to_dict(report: RunReport) -> dict:
    """Schema-stable JSON form of a report."""
    wv_rows = []
    for row in report.weak_values:
        wv_rows.append(
            {
                "site": row.site,
                "stage": row.stage,
                "numerator": _pair(row.numerator),
                "denominator": _pair(row.denominator),
                "value": None if row.value is None else _pair(row.value),
                "degenerate": bool(row.degenerate),
            }
        )
    rules = [
        {"sites": list(r.sites), "stage": r.stage, "total": _pair(r.total)}
        for r in report.sum_rules
    ]
    weak_stats = {}
    for site, st in report.weak_stats.items():
        weak_stats[site] = {
            "mean": float(st.mean),
            "variance": float(st.variance),
            "positions": [float(x) for x in st.positions],
            "probabilities": [float(x) for x in st.probabilities],
        }
    disturbance = []
    for row in report.disturbance:
        disturbance.append(
            {
                "site": row.site,
                "stage": row.stage,
                "undisturbed": _pair(row.undisturbed),
                "branches": {_pattern_key(p): _pair(a) for p, a in row.branches.items()},
                "disturbed": bool(row.disturbed),
            }
        )
    return {
        "scenario": {
            "checksum": report.checksum,
            "dim": report.dim,
            "stages": list(report.stages),
            "coupling_order": list(report.coupling_order),
            "degenerate": bool(report.degenerate),
            "patterns_provenance": "model-derived",
        },
        "weak_values": {"table": wv_rows, "sum_rules": rules},
        "postselection_probability": float(report.postselection_probability),
        "clicks": {site: float(p) for site, p in report.clicks.items()},
        "patterns": {_pattern_key(p): float(v) for p, v in report.patterns.items()},
        "weak_stats": weak_stats,
        "disturbance": disturbance,
        "tolerance": float(report.tolerance),
    }


def _complex_of(pair) -> complex:
    return complex(pair[0], pair[1])


def report_from_dict(d: dict) -> RunReport:
    """Rebuild a RunReport from its JSON form (inverse of report_to_dict)."""
    scen = d["scenario"]
    rows = tuple(
        WeakValueResult(
            site=r["site"],
            stage=r["stage"],
            numerator=_complex_of(r["numerator"]),
            denominator=_complex_of(r["denominator"]),
            value=None if r["value"] is None else _complex_of(r["value"]),
            degenerate=bool(r["degenerate"]),
        )
        for r in d["weak_values"]["table"]
    )
    rules = tuple(
        SumRuleResult(sites=tuple(r["sites"]), stage=r["stage"], total=_complex_of(r["total"]))
        for r in d["weak_values"]["sum_rules"]
    )
    weak_stats = {}
    for site, st in d["weak_stats"].items():
        positions = np.array(st["positions"], dtype=float)
        probabilities = np.array(st["probabilities"], dtype=float)
        positions.setflags(write=False)
        probabilities.setflags(write=False)
        weak_stats[site] = WeakPointerStats(
            site=site,
            mean=float(st["mean"]),
            variance=float(st["variance"]),
            positions=positions,
            probabilities=probabilities,
        )
    disturbance = tuple(
        DisturbanceRow(
            site=r["site"],
            stage=r["stage"],
            undisturbed=_complex_of(r["undisturbed"]),
            branches={_pattern_from_key(k): _complex_of(a) for k, a in r["branches"].items()},
            disturbed=bool(r["disturbed"]),
        )
        for r in d["disturbance"]
    )
    return RunReport(
        checksum=scen["checksum"],
        dim=int(scen["dim"]),
        stages=tuple(scen["stages"]),
        coupling_order=tuple(scen["coupling_order"]),
        tolerance=float(d["tolerance"]),
        weak_values=rows,
        sum_rules=rules,
        postselection_probability=float(d["postselection_probability"]),
        degenerate=bool(scen["degenerate"]),
        clicks={site: float(p) for site, p in d["clicks"].items()},
        patterns={_pattern_from_key(k): float(v) for k, v in d["patterns"].items()},
        weak_stats=weak_stats,
        disturbance=disturbance,
    )
