"""Report assembly: weak-value tables, pointer runs, disturbance, JSON."""

from __future__ import annotations

import json
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from builders import EXPECTED_WEAK_VALUES, FOUR_LEVEL
from wvlab.cli import render_text
from wvlab.errors import ContractError
from wvlab.pointer import STRONG, PointerSpec, WeakPointerStats
from wvlab.runner import (
    DisturbanceRow,
    RunReport,
    SumRuleResult,
    disturbance_table,
    report_to_dict,
    run_pointers,
    run_weak_values,
)
from wvlab.scenario import (
    BUILTIN_NAMES,
    builtin,
    default_three_path,
    from_dict,
    load,
    three_path_rank2_crossing,
    to_dict,
)
from wvlab.twosv import WeakValueResult


def test_weak_value_table_and_sum_rules():
    rep = run_weak_values(builtin("three-path"))
    assert len(rep.weak_values) == 7
    for row in rep.weak_values:
        assert abs(row.value - EXPECTED_WEAK_VALUES[row.site]) <= 1e-12
        assert abs(row.denominator - 1.0 / 3.0) <= 1e-12
        assert not row.degenerate
    assert abs(rep.postselection_probability - 1.0 / 9.0) <= 1e-12
    assert len(rep.sum_rules) == 2
    for rule in rep.sum_rules:
        assert abs(rule.total - 1.0) <= 1e-12
    assert rep.coupling_order == ()
    assert rep.clicks == {} and rep.patterns == {} and rep.weak_stats == {}


def test_weak_values_invariant_under_appended_pointers():
    bare = run_weak_values(builtin("three-path"))
    loaded = run_weak_values(builtin("three-path-allweak"))
    for a, b in zip(bare.weak_values, loaded.weak_values):
        assert a.site == b.site and a.stage == b.stage
        assert a.value == b.value
        assert a.numerator == b.numerator


def test_fig1_run():
    rep = run_pointers(builtin("three-path-fig1"))
    assert abs(rep.postselection_probability - 1.0 / 9.0) <= 1e-10
    assert abs(rep.clicks["D"] - 1.0) <= 1e-12
    assert abs(rep.clicks["O"]) <= 1e-12
    assert abs(rep.patterns[("D",)] - 1.0) <= 1e-12
    assert rep.coupling_order == ("D", "O")
    assert abs(sum(rep.patterns.values()) - 1.0) <= 1e-10


def test_oprime_pointer_changes_nothing():
    base = run_pointers(builtin("three-path-fig1"))
    extended = run_pointers(builtin("three-path-fig1-oprime"))
    assert abs(extended.clicks["O'"]) <= 1e-12
    assert abs(base.postselection_probability - extended.postselection_probability) <= 1e-12
    for site in ("D", "O"):
        assert abs(base.clicks[site] - extended.clicks[site]) <= 1e-12
    # Marginalizing the never-clicking register away recovers the base
    # joint distribution exactly.
    marginal = {}
    for pattern, p in extended.patterns.items():
        reduced = tuple(s for s in pattern if s != "O'")
        marginal[reduced] = marginal.get(reduced, 0.0) + p
    for pattern, p in base.patterns.items():
        assert abs(marginal.get(pattern, 0.0) - p) <= 1e-12


def test_fig2_run():
    rep = run_pointers(builtin("three-path-fig2"))
    assert abs(rep.postselection_probability - 1.0 / 3.0) <= 1e-10
    third = 1.0 / 3.0
    assert set(rep.patterns) == {("D",), ("O", "E'"), ("O", "F'")}
    for v in rep.patterns.values():
        assert abs(v - third) <= 1e-10
    assert abs(sum(rep.patterns.values()) - 1.0) <= 1e-10
    assert rep.coupling_order == ("D", "O", "E'", "F'")


def test_allweak_run_follows_first_order_pointer_law():
    sc = builtin("three-path-allweak")
    g = sc.pointers[0].g
    sigma = sc.pointers[0].sigma
    rep = run_pointers(sc)
    assert rep.coupling_order == ("E", "F", "D", "O", "E'", "F'", "O'")
    assert set(rep.patterns) == {()}
    assert abs(rep.patterns[()] - 1.0) <= 1e-10
    # A gentle probe leaves the postselection probability near 1/9.
    assert abs(rep.postselection_probability - 1.0 / 9.0) <= 2e-4
    for site, wv in EXPECTED_WEAK_VALUES.items():
        st = rep.weak_stats[site]
        assert abs(st.mean - g * wv) <= 1e-4 * sigma
        assert abs(st.probabilities.sum() - 1.0) <= 1e-10
        assert abs(st.variance - sigma**2) <= 2e-2 * sigma**2
    assert rep.weak_stats["F"].mean < 0 and rep.weak_stats["F'"].mean < 0
    assert rep.weak_stats["E"].mean > 0 and rep.weak_stats["D"].mean > 0


def test_coupling_order_is_stage_order_then_declaration_order():
    # four_level.json declares its pointers in stage order. Reversed, they
    # still couple stage by stage, and in declaration order within a stage:
    # N1 before A at t1.
    d = to_dict(load(FOUR_LEVEL))
    d["pointers"].reverse()
    assert [p["site"] for p in d["pointers"]] == ["Z", "N3", "B", "N1", "A"]
    assert run_pointers(from_dict(d)).coupling_order == ("N1", "A", "B", "N3", "Z")


def test_disturbance_fig1_clean():
    rep = disturbance_table(builtin("three-path-fig1"))
    rows = {r.site: r for r in rep.disturbance}
    assert set(rows) == {"O", "O'"}
    for row in rows.values():
        assert abs(row.undisturbed) <= 1e-12
        assert not row.disturbed
        assert row.branches == {}


def test_disturbance_fig2_flags_first_crossing_only():
    rep = disturbance_table(builtin("three-path-fig2"))
    rows = {r.site: r for r in rep.disturbance}
    assert rows["O"].disturbed
    branches = rows["O"].branches
    assert set(branches) == {("O", "E'"), ("O", "F'")}
    assert abs(branches[("O", "E'")] - 1.0 / 3.0) <= 1e-12
    assert abs(branches[("O", "F'")] + 1.0 / 3.0) <= 1e-12
    assert not rows["O'"].disturbed
    assert rows["O'"].branches == {}


def test_disturbance_without_pointers_reduces_to_amplitudes():
    rows = disturbance_table(builtin("three-path")).disturbance
    assert {r.site for r in rows} == {"O", "O'"}
    for row in rows:
        assert abs(row.undisturbed) <= 1e-12
        assert not row.disturbed


def _degenerate_scenario(pointers=()):
    d = to_dict(default_three_path(pointers))
    s2 = float(1.0 / np.sqrt(2.0))
    d["post"] = [[0.0, 0.0], [s2, 0.0], [-s2, 0.0]]
    return from_dict(d)


def test_degenerate_postselection_reports():
    rep = run_weak_values(_degenerate_scenario())
    assert rep.degenerate
    assert rep.sum_rules == ()
    for row in rep.weak_values:
        assert row.degenerate and row.value is None
    from wvlab.pointer import PointerSpec

    loaded = _degenerate_scenario((PointerSpec(site="D", kind="strong"),))
    rep = run_pointers(loaded)
    assert rep.degenerate
    assert rep.postselection_probability <= 1e-20
    assert rep.clicks == {} and rep.patterns == {} and rep.weak_stats == {}


def test_run_pointers_requires_a_pointer():
    with pytest.raises(ContractError):
        run_pointers(builtin("three-path"))


@pytest.mark.parametrize(
    "make",
    [
        lambda: run_weak_values(builtin("three-path")),
        lambda: run_pointers(builtin("three-path-fig2")),
        lambda: run_pointers(builtin("three-path-allweak")),
        lambda: disturbance_table(builtin("three-path-fig2")),
    ],
)
def test_reports_are_deterministic_and_round_trip(make):
    first = json.dumps(report_to_dict(make()), indent=2)
    second = json.dumps(report_to_dict(make()), indent=2)
    assert first == second


def test_report_dict_has_stable_top_level_keys():
    d = report_to_dict(run_pointers(builtin("three-path-fig1")))
    assert list(d.keys()) == [
        "scenario",
        "weak_values",
        "postselection_probability",
        "clicks",
        "patterns",
        "weak_stats",
        "disturbance",
        "tolerance",
    ]
    assert d["scenario"]["checksum"] == builtin("three-path-fig1").checksum
    assert d["scenario"]["coupling_order"] == ["D", "O"]
    assert d["scenario"]["patterns_provenance"] == "model-derived"
    assert d["patterns"]["D"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("run", [run_weak_values, run_pointers, disturbance_table])
def test_a_report_hashes_its_scenario_only_when_an_output_reads_it(run):
    with open(os.path.join(os.path.dirname(__file__), "data", "cli_golden",
                           "three-path-fig2.run.json"), encoding="utf-8") as fh:
        want = json.load(fh)["scenario"]["checksum"]
    readers = (
        lambda rep: rep.checksum,
        lambda rep: report_to_dict(rep)["scenario"]["checksum"],
        lambda rep: render_text(rep).splitlines()[1].split(": ")[1],
    )
    fresh = (
        lambda: replace(builtin("three-path-fig2")),
        lambda: from_dict(to_dict(builtin("three-path-fig2"))),
    )
    for make in fresh:
        for read in readers:
            sc = make()
            rep = run(sc)
            assert rep.scenario is sc and rep.dim == 3
            assert "checksum" not in vars(sc)
            assert read(rep) == want == vars(sc)["checksum"]


def test_report_rows_are_their_result_types_fields():
    rank2 = three_path_rank2_crossing(
        [PointerSpec(site=s, kind=STRONG) for s in ("D", "O", "E'", "F'")]
    )
    four_level = load(FOUR_LEVEL)
    seen = set()
    for sc in [builtin(name) for name in BUILTIN_NAMES] + [rank2, four_level]:
        reports = [run_weak_values(sc), disturbance_table(sc)]
        if sc.pointers:
            reports.append(run_pointers(sc))
        for rep in reports:
            d = report_to_dict(rep)
            rows = (
                [(WeakValueResult, row) for row in d["weak_values"]["table"]]
                + [(SumRuleResult, row) for row in d["weak_values"]["sum_rules"]]
                + [(WeakPointerStats, row) for row in d["weak_stats"].values()]
                + [(DisturbanceRow, row) for row in d["disturbance"]]
            )
            for cls, row in rows:
                assert list(row) == [f.name for f in fields(cls)]
                seen.add(cls)
    assert seen == {WeakValueResult, SumRuleResult, WeakPointerStats, DisturbanceRow}

    def report(real, cplx):
        return RunReport(
            scenario=default_three_path(),
            coupling_order=("s",),
            weak_values=(
                WeakValueResult("s", "a", cplx(1 + 2j), cplx(complex(-0.0, -0.0)),
                                cplx(0.5 - 0.25j), False),
                WeakValueResult("t", "b", cplx(1j), cplx(0j), None, True),
            ),
            sum_rules=(SumRuleResult(("s", "t"), "a", cplx(1 - 0j)),),
            postselection_probability=real(0.25),
            degenerate=False,
            clicks={"s": real(0.5)},
            patterns={("s", "t"): real(0.125), (): real(0.875)},
            weak_stats={"w": WeakPointerStats(real(-0.1), real(0.2), np.array([-1.0, 0.0, 1.0]),
                                              np.array([0.25, 0.5, 0.25]))},
            disturbance=(DisturbanceRow("s", "a", cplx(0j), {("s",): cplx(0.5 + 0j)}, True),),
        )

    plain = json.dumps(report_to_dict(report(float, complex)), indent=2)
    assert json.dumps(report_to_dict(report(np.float64, np.complex128)), indent=2) == plain
    assert "-0.0" not in plain
