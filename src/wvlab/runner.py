"""Experiment execution: weak-value tables, pointer runs, disturbance.

Each run is a pure function of a Scenario and produces a RunReport.
Reports serialize to a schema-stable JSON dict with fixed top-level
keys (scenario, weak_values, postselection_probability, clicks,
patterns, weak_stats, disturbance, tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegeneratePostselectionError
from .pointer import (
    READY_CODE,
    WeakPointerStats,
    act,
    click_readout,
    couple,
    pattern_amplitudes,
    register_bits,
    strong_block,
)
from .scenario import Scenario, Site, SumRule
from .twosv import WeakValueResult, sweep, transition_amplitude, weak_value

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
    not quoted from elsewhere, and patterns at or below PATTERN_FLOOR
    are omitted. coupling_order records the order in which pointer
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


def _rule_total(sc: Scenario, rule: SumRule) -> complex:
    """Left-to-right sum of a rule's weak values; Scenario checked that the set is complete."""
    total = 0j  # plain left-to-right sum; sum() may compensate
    for label in rule.sites:
        row = weak_value(sc.timeline, sc.prepost, sc.site(label).projector, rule.stage,
                         tol=sc.tolerance)
        if row.degenerate:
            raise DegeneratePostselectionError(f"postselection amplitude vanished at stage {rule.stage!r}")
        total += row.value
    return total


def _base_report(sc: Scenario, **sections) -> RunReport:
    tl, pp = sc.timeline, sc.prepost
    amp = sweep(tl, pp).overlaps[-1]
    degenerate = abs(amp) <= sc.tolerance
    sum_rules = tuple(
        SumRuleResult(sites=rule.sites, stage=rule.stage, total=_rule_total(sc, rule))
        for rule in (() if degenerate else sc.sum_rules)
    )
    defaults = dict(
        checksum=sc.checksum,
        dim=sc.dim,
        stages=sc.timeline.stages,
        coupling_order=(),
        tolerance=sc.tolerance,
        weak_values=tuple(
            weak_value(tl, pp, site.projector, site.stage, site=site.label, tol=sc.tolerance)
            for site in sc.sites
        ),
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
    through insert's projector right before that stage's couplings.

    The pass holds two read-only arrays, the live branches (system dim,
    B) and their click codes (B,), and replaces both at every step.
    Returns the live strong codes and the unnormalized, writable block
    of their postselected amplitudes (strong_block), and the coupling
    order.
    """
    bits = register_bits(sc.pointers)
    couplings = {}
    for ps in sc.pointers:
        site = sc.site(ps.site)
        couplings.setdefault(site.stage, []).append((ps, site.projector.matrix))
    branches, codes = sc.prepost.pre.amps[:, None], READY_CODE
    order = []
    for k, stage in enumerate(sc.timeline.stages):
        if k > 0:
            branches = act(sc.timeline.segments[k - 1].matrix, branches)
        if insert is not None and insert.stage == stage:
            branches = act(insert.projector.matrix, branches)
        for ps, proj in couplings.get(stage, ()):
            branches, codes = couple(branches, codes, proj, bits[ps.site], ps)
            order.append(ps.site)
    strong, block = strong_block(sc.prepost.post.amps.conj() @ branches, codes, sc.pointers)
    return strong, block, tuple(order)


def run_pointers(sc: Scenario) -> RunReport:
    """Couple every declared pointer in stage order and read out.

    Couplings at the same stage run in declaration order (recorded in
    the report). When postselection is degenerate the report carries
    probability ~0 and no conditional statistics.
    """
    if not sc.pointers:
        raise ContractError("run_pointers needs a scenario with at least one pointer")
    strong, block, order = _simulate(sc)
    prob = float(np.linalg.norm(block) ** 2)
    degenerate = bool(np.sqrt(prob) <= sc.tolerance)
    sections = dict(coupling_order=order, postselection_probability=prob, degenerate=degenerate)
    if not degenerate:
        block /= np.sqrt(prob)
        sections.update(click_readout(strong, block, sc.pointers))
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
        strong, block, _ = _simulate(sc, insert=site)
        amps = pattern_amplitudes(strong, block, sc.pointers)
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
