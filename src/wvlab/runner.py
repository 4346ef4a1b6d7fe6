"""Experiment execution: weak-value tables, pointer runs, disturbance.

Each run is a pure function of a Scenario and produces a RunReport
that holds it; a pointer run or a disturbance table is the weak-value
report with its own sections. Reports serialize to a schema-stable
JSON dict with fixed top-level keys (scenario, weak_values,
postselection_probability, clicks, patterns, weak_stats, disturbance,
tolerance). Every row in it is its result type (WeakValueResult,
SumRuleResult, WeakPointerStats, DisturbanceRow) written as that
type's fields, in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ContractError
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
from .scenario import PATTERN_SEP, Scenario, Site
from .twosv import WeakValueResult, sweep, weak_value, weak_value_sum


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


@dataclass(frozen=True, eq=False, kw_only=True)
class RunReport:
    """Everything one analysis produced, ready for rendering.

    scenario is the one the run read; its checksum is hashed when an
    output first reads it. patterns maps tuples of clicked strong sites
    (register order) to model-derived joint conditional probabilities,
    omitting those at or below PATTERN_FLOOR. coupling_order is the
    order the couplings ran in. A section no pointer run filled stays empty.
    """

    scenario: Scenario
    coupling_order: tuple[str, ...] = ()
    weak_values: tuple[WeakValueResult, ...]
    sum_rules: tuple[SumRuleResult, ...]
    postselection_probability: float
    degenerate: bool
    clicks: dict[str, float] = field(default_factory=dict)
    patterns: dict[tuple[str, ...], float] = field(default_factory=dict)
    weak_stats: dict[str, WeakPointerStats] = field(default_factory=dict)
    disturbance: tuple[DisturbanceRow, ...] = ()

    @property
    def checksum(self) -> str:
        return self.scenario.checksum

    @property
    def dim(self) -> int:
        return self.scenario.dim


def run_weak_values(sc: Scenario) -> RunReport:
    """Weak value for every declared site, plus declared sum rules.

    Pointers do not enter: weak values describe the undisturbed
    scenario. A degenerate postselection is flagged, not fatal.
    """
    tl, pp = sc.timeline, sc.prepost
    amp = sweep(tl, pp).amplitude
    degenerate = abs(amp) <= sc.tolerance
    # Scenario checked every set is complete; no row here is degenerate.
    sum_rules = tuple(
        SumRuleResult(rule.sites, rule.stage, weak_value_sum(
            tl, pp, [sc.site(label).projector for label in rule.sites], rule.stage, sc.tolerance))
        for rule in (() if degenerate else sc.sum_rules)
    )
    return RunReport(
        scenario=sc,
        weak_values=tuple(
            weak_value(tl, pp, site.projector, site.stage, site=site.label, tol=sc.tolerance)
            for site in sc.sites
        ),
        sum_rules=sum_rules,
        postselection_probability=float(abs(amp) ** 2),
        degenerate=degenerate,
    )


def _simulate(sc: Scenario, insert: Site | None = None):
    """Run the coupling pipeline, optionally projecting the system
    through insert's projector right before that stage's couplings.

    The pass runs from the first to the last stage that couples or
    inserts, from the sweep's |pre> at the first to its <post| at the
    last. It holds two read-only arrays, the live branches (system dim,
    B) and their click codes (B,), and replaces both at every step.
    Returns the live strong codes and the unnormalized, writable block
    of their postselected amplitudes (strong_block), and the coupling
    order.
    """
    tl, bits = sc.timeline, register_bits(sc.pointers)
    couplings = {insert.stage: []} if insert is not None else {}
    for ps in sc.pointers:
        site = sc.site(ps.site)
        couplings.setdefault(site.stage, []).append((ps, site.projector.matrix))
    first, last = min(map(tl.index, couplings)), max(map(tl.index, couplings))
    sw = sweep(tl, sc.prepost)
    branches, codes = sw.forward[first][:, None], READY_CODE
    order = []
    for k, stage in enumerate(tl.stages[first:last + 1], first):
        if k > first:
            branches = act(tl.segments[k - 1].matrix, branches)
        if insert is not None and insert.stage == stage:
            branches = act(insert.projector.matrix, branches)
        for ps, proj in couplings.get(stage, ()):
            branches, codes = couple(branches, codes, proj, bits[ps.site], ps)
            order.append(ps.site)
    strong, block = strong_block(sw.backward[last].conj() @ branches, codes, sc.pointers)
    return strong, block, tuple(order)


def run_pointers(sc: Scenario) -> RunReport:
    """Couple every declared pointer in stage order and read out.

    Couplings at the same stage run in declaration order (recorded in
    the report). The weak-value report takes the pointer run's
    postselection probability; when it is degenerate the report carries
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
    return replace(run_weak_values(sc), **sections)


def disturbance_table(sc: Scenario) -> RunReport:
    """Weak-value report with one disturbance row per site whose
    undisturbed transition amplitude, its weak-value row's numerator,
    vanishes.

    Each row reruns the pointer pipeline with the system projected
    through that site, then collects the branch amplitudes that survive
    postselection per strong click pattern. Without pointers the single
    branch amplitude is the inserted-projector transition amplitude
    itself, so all flags stay false.
    """
    report = run_weak_values(sc)
    rows = []
    for site, row in zip(sc.sites, report.weak_values):
        if abs(row.numerator) > sc.tolerance:
            continue
        strong, block, _ = _simulate(sc, insert=site)
        amps = pattern_amplitudes(strong, block, sc.pointers)
        branches = {pat: amp for pat, amp in amps.items() if abs(amp) > sc.tolerance}
        rows.append(DisturbanceRow(site.label, site.stage, row.numerator, branches, bool(branches)))
    return replace(report, disturbance=tuple(rows))


# --- report serialization ---------------------------------------------------


def _plain(x):
    """JSON form of a report value: a result type becomes a dict of its
    fields in declaration order, complex an [re, im] pair, an array its
    list; tuple keys (click patterns) are joined by PATTERN_SEP."""
    if isinstance(x, complex):
        return [float(x.real) + 0.0, float(x.imag) + 0.0]
    if x is None or isinstance(x, (str, int, float)):
        return x
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {
            PATTERN_SEP.join(k) if isinstance(k, tuple) else k: _plain(v) for k, v in x.items()
        }
    if isinstance(x, np.ndarray):
        return x.tolist()
    return {f.name: _plain(getattr(x, f.name)) for f in fields(x)}


def report_to_dict(report: RunReport) -> dict:
    """Schema-stable JSON form of a report; each row holds its result type's fields."""
    return {
        "scenario": {
            "checksum": report.checksum,
            "dim": report.dim,
            "stages": list(report.scenario.timeline.stages),
            "coupling_order": list(report.coupling_order),
            "degenerate": bool(report.degenerate),
            "patterns_provenance": "model-derived",
        },
        "weak_values": {"table": _plain(report.weak_values), "sum_rules": _plain(report.sum_rules)},
        "postselection_probability": float(report.postselection_probability),
        "clicks": _plain(report.clicks),
        "patterns": _plain(report.patterns),
        "weak_stats": _plain(report.weak_stats),
        "disturbance": _plain(report.disturbance),
        "tolerance": float(report.scenario.tolerance),
    }
