"""The two-state sweep against the direct formula, and CLI output pinned.

Reports read every amplitude off one forward and one backward sweep.
Here each number a report holds is recomputed from raw matrix products
(the formula of acceptance criterion 6) on seeded random timelines,
the CLI output of every built-in and of one file-loaded scenario
(tests/data/four_level.json) is compared byte for byte with fixtures
in tests/data/cli_golden, and weak-pointer grids too coarse
for their kick are shown to be rejected when a scenario loads.

Regenerate the fixtures after an intended output change with
    PYTHONPATH=src python tests/test_sweep.py --write-golden
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

from builders import FOUR_LEVEL, random_state, random_unitary
from wvlab import cli
from wvlab.errors import SCHEMA, UNKNOWN_SITE, ContractError, ScenarioError
from wvlab.pointer import WEAK, PointerSpec
from wvlab.qcore import Ket, Operator, basis_ket, identity
from wvlab.runner import disturbance_table, run_weak_values
from wvlab.scenario import (
    BUILTIN_NAMES,
    Scenario,
    Site,
    SumRule,
    _pairs,
    builtin,
    from_dict,
    load,
    to_dict,
)
from wvlab.twosv import (
    PrePost,
    Timeline,
    identity_timeline,
    sum_rule_check,
    sweep,
    transition_amplitude,
    weak_value,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "cli_golden")
EXIT_CODES = os.path.join(GOLDEN_DIR, "exit_codes.json")
SUBCOMMANDS = ("weak-values", "run", "disturbance", "validate")
FORMATS = ("text", "json")
ATOL = 1e-12


def _random_scenario(seed: int, n_stages: int, dim: int):
    """A scenario with generic, null, rank-2 and sum-rule sites, plus its raw matrices.

    Like criterion 6, post is redrawn until the bare amplitude exceeds
    0.05. Null sites are orthogonal to the post state dragged back to
    their stage by raw matrix products.
    """
    rng = np.random.default_rng([seed, n_stages, dim])
    stages = tuple(f"s{k}" for k in range(n_stages))
    mats = [random_unitary(rng, dim) for _ in stages[:-1]]
    total = np.eye(dim, dtype=complex)
    for m in mats:
        total = m @ total
    pre = random_state(rng, dim)
    post = random_state(rng, dim)
    while abs(np.vdot(post, total @ pre)) <= 0.05:
        post = random_state(rng, dim)

    picks = sorted({0, n_stages - 1, *rng.integers(0, n_stages, size=min(n_stages, 12)).tolist()})
    sites = []
    for k in picks:
        sites.append(Site(f"g{k}", stages[k], "ket", random_state(rng, dim)))
    for k in picks[:3]:
        back = post
        for m in reversed(mats[k:]):
            back = m.conj().T @ back
        w = random_state(rng, dim)
        null = w - np.vdot(back, w) / np.vdot(back, back) * back
        sites.append(Site(f"n{k}", stages[k], "ket", null))
    basis = random_unitary(rng, dim)
    rank2 = basis[:, :2] @ basis[:, :2].conj().T
    sites.append(Site("r", stages[picks[-1]], "matrix", rank2))
    # The complete set sits at one stage but its sum rule is taken at another.
    set_stage, rule_stage = stages[picks[0]], stages[picks[len(picks) // 2]]
    for j in range(dim):
        sites.append(Site(f"b{j}", set_stage, "ket", basis[:, j]))
    sc = Scenario(
        timeline=Timeline(stages, tuple(Operator(m) for m in mats)),
        prepost=PrePost(Ket(pre), Ket(post)),
        sites=tuple(sites),
        sum_rules=(SumRule(tuple(f"b{j}" for j in range(dim)), rule_stage),),
    )
    return sc, mats, pre, post


def _direct(mats, pre, post, proj, k):
    """<post| U_after P U_before |pre> by raw matrix products, and the bare amplitude."""
    dim = pre.size
    before = np.eye(dim, dtype=complex)
    for m in mats[:k]:
        before = m @ before
    after = np.eye(dim, dtype=complex)
    for m in mats[k:]:
        after = m @ after
    num = np.vdot(post, after @ proj @ (before @ pre))
    den = np.vdot(post, after @ (before @ pre))
    return num, den


@pytest.mark.parametrize("n_stages", (2, 10, 200))
@pytest.mark.parametrize("dim", (2, 3, 16))
def test_report_matches_direct_formula(n_stages, dim):
    sc, mats, pre, post = _random_scenario(11, n_stages, dim)
    index = {s: k for k, s in enumerate(sc.timeline.stages)}
    rep = run_weak_values(sc)

    assert [row.site for row in rep.weak_values] == [s.label for s in sc.sites]
    direct_tau = {}
    for site, row in zip(sc.sites, rep.weak_values):
        num, den = _direct(mats, pre, post, site.projector.matrix, index[site.stage])
        direct_tau[site.label] = num
        assert row.stage == site.stage and not row.degenerate
        assert abs(row.numerator - num) <= ATOL
        assert abs(row.denominator - den) <= ATOL
        assert abs(row.value - num / den) <= ATOL

    (rule,) = rep.sum_rules
    k = index[rule.stage]
    want = 0.0
    for label in rule.sites:
        num, den = _direct(mats, pre, post, sc.site(label).projector.matrix, k)
        want += num / den
    assert abs(rule.total - want) <= ATOL
    assert abs(rule.total - 1.0) <= 1e-9

    _, den = _direct(mats, pre, post, np.eye(dim), len(mats))
    assert abs(rep.postselection_probability - abs(den) ** 2) <= ATOL
    assert abs(sweep(sc.timeline, sc.prepost).amplitude - den) <= ATOL

    rows = disturbance_table(sc).disturbance
    nulls = [label for label, tau in direct_tau.items() if abs(tau) <= sc.tolerance]
    assert nulls == [s.label for s in sc.sites if s.label.startswith("n")]
    assert [row.site for row in rows] == nulls
    for row in rows:
        assert abs(row.undisturbed - direct_tau[row.site]) <= ATOL
        assert not row.disturbed


RANDOM_SIZES = [(n_stages, dim) for n_stages in (2, 10, 200) for dim in (2, 3, 16)]


def _report_scenario(case: str) -> Scenario:
    if case == "four-level":
        return load(FOUR_LEVEL)
    if case.startswith("random-"):
        n_stages, dim = map(int, case[len("random-"):].split("x"))
        return _random_scenario(11, n_stages, dim)[0]
    return builtin(case)


REPORT_CASES = [*BUILTIN_NAMES, "four-level", *(f"random-{s}x{d}" for s, d in RANDOM_SIZES)]


@pytest.mark.parametrize("case", REPORT_CASES)
def test_report_rows_and_sum_rules_are_direct_weak_value_calls(case):
    # Exact equality: a report row and a direct call run one code path.
    sc = _report_scenario(case)
    tl, pp = sc.timeline, sc.prepost
    rep = run_weak_values(sc)
    assert len(rep.weak_values) == len(sc.sites)
    for site, row in zip(sc.sites, rep.weak_values):
        assert row == weak_value(tl, pp, site.projector, site.stage, site=site.label, tol=sc.tolerance)
    assert [(r.sites, r.stage) for r in rep.sum_rules] == [(r.sites, r.stage) for r in sc.sum_rules]
    for rule, got in zip(sc.sum_rules, rep.sum_rules):
        total = 0j
        for label in rule.sites:
            total += weak_value(tl, pp, sc.site(label).projector, rule.stage).value
        assert got.total == total
        projectors = {label: sc.site(label).projector for label in rule.sites}
        assert got.total == sum_rule_check(tl, pp, projectors, rule.stage, sc.tolerance)


@pytest.mark.parametrize("n_stages, dim", RANDOM_SIZES)
def test_sweep_holds_read_only_stacks_and_their_overlaps(n_stages, dim):
    sc = _random_scenario(11, n_stages, dim)[0]
    sw = sweep(sc.timeline, sc.prepost)
    for arr in (sw.forward, sw.backward):
        assert isinstance(arr, np.ndarray) and arr.shape == (n_stages, dim)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    # Every stage pairs to the one amplitude; the last one bit for bit.
    assert sw.amplitude == np.vdot(sw.backward[-1], sw.forward[-1])
    for k, stage in enumerate(sc.timeline.stages):
        assert abs(np.vdot(sw.backward[k], sw.forward[k]) - sw.amplitude) <= ATOL
        assert sc.timeline.index(stage) == k


def test_single_stage_timeline_is_rejected():
    # No timeline of fewer than two stages reaches a sweep, built directly
    # (test_scenario.py) or through identity_timeline.
    for stages in ((), ("only",)):
        with pytest.raises(ScenarioError, match="timeline needs at least two stages") as err:
            identity_timeline(stages, 3)
        assert err.value.code == SCHEMA


def test_sweep_rejects_unknown_stage_and_mismatched_dimension():
    tl = identity_timeline(("a", "b"), 2)
    sweep(tl, PrePost(Ket([1.0, 0.0]), Ket([0.0, 1.0])))
    with pytest.raises(ContractError):
        tl.index("c")
    wide = PrePost(Ket([1.0, 0.0, 0.0]), Ket([0.0, 1.0, 0.0]))
    with pytest.raises(ContractError, match="timeline dim 2 vs state dim 3") as err:
        sweep(tl, wide)
    assert not isinstance(err.value, ScenarioError)
    with pytest.raises(ContractError, match="operator dim 3 vs state dim 2"):
        weak_value(tl, PrePost(Ket([1.0, 0.0]), Ket([0.0, 1.0])), identity(3), "a")


def test_one_sweep_per_report_and_per_pre_post_pair():
    sc = builtin("three-path-fig2")
    sweep.cache_clear()
    disturbance_table(sc)
    assert sweep.cache_info().misses == 1
    # A stage scan over one pair reuses its sweep; another pair gets its own.
    tl, one = sc.timeline, identity(sc.dim)
    taus = [transition_amplitude(tl, sc.prepost, one, s) for s in tl.stages]
    assert sweep.cache_info().misses == 1
    total = np.eye(sc.dim)
    for seg in tl.segments:
        total = seg.matrix @ total
    assert all(abs(tau - np.vdot(sc.prepost.post.amps, total @ sc.prepost.pre.amps)) <= ATOL
               for tau in taus)
    other = PrePost(sc.prepost.pre, basis_ket(sc.dim, 0))
    want = np.vdot(other.post.amps, total @ other.pre.amps)
    assert abs(want - taus[0]) > 0.1
    for stage in tl.stages:
        assert abs(transition_amplitude(tl, other, one, stage) - want) <= ATOL
    assert sweep.cache_info().misses == 2


def test_site_lookup_and_cached_checksum():
    sc = builtin("three-path-fig1")
    assert sc.site("O") is sc.sites[3]
    with pytest.raises(ScenarioError) as info:
        sc.site("Z")
    assert info.value.code == UNKNOWN_SITE
    first = sc.checksum
    assert sc.checksum is first
    assert sc.with_overrides(tolerance=1e-9).checksum != first


@pytest.mark.parametrize("order", ("C", "F"))
def test_pairs_match_elementwise_form(order):
    rng = np.random.default_rng(2)
    mat = np.asarray(random_unitary(rng, 4), order=order)
    mat[0, 1] = complex(-0.0, 0.0)
    for arr in (mat, mat[0], mat.T):
        want = [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]
        got = _pairs(arr)
        assert got == want
        assert [str(x) for p in got for x in p] == [str(x) for p in want for x in p]


# --- coarse weak grids ------------------------------------------------------


@pytest.mark.parametrize("change", ({"grid_size": 3}, {"grid_extent": 1e6}))
def test_coarse_weak_grid_fails_validate_with_schema(change, tmp_path, capsys):
    d = to_dict(builtin("three-path-allweak"))
    d["pointers"][0].update(change)
    with pytest.raises(ScenarioError) as info:
        from_dict(d)
    assert info.value.code == SCHEMA
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    code = cli.main(["validate", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION and captured.out == ""
    assert "validation error [schema]" in captured.err
    assert "probability mass" in captured.err


def test_pointer_spec_factor_is_read_only_and_rebuilt_on_override():
    sc = builtin("three-path-allweak")
    spec = sc.pointers[0]
    assert spec.kind == WEAK and spec.mass_loss <= 1e-6
    for arr in (spec.moved_coeffs, spec.positions, spec.basis, spec.pos_op, spec.pos2_op):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        spec.moved_coeffs[0] = 0.0
    # The factor takes no part in equality, hashing or repr.
    twin = PointerSpec("E", WEAK)
    assert twin == spec and hash(twin) == hash(spec) and twin.basis is not spec.basis
    assert "moved_coeffs" not in repr(spec)
    # A new g builds a new factor: the kicked packet moves off the ready one.
    kicked = sc.with_overrides(g=0.05).pointers[0]
    assert kicked.moved_coeffs[1] > spec.moved_coeffs[1] > 0.0
    assert kicked.moved_coeffs[0] < spec.moved_coeffs[0] < 1.0
    assert np.array_equal(kicked.moved_coeffs, PointerSpec("E", WEAK, g=0.05).moved_coeffs)


# --- CLI output pinned byte for byte ----------------------------------------


def _cases():
    out = {}
    for name in BUILTIN_NAMES:
        for cmd in SUBCOMMANDS:
            for fmt in FORMATS:
                out[f"{name}.{cmd}.{fmt}"] = [cmd, "--scenario", f"builtin:{name}", "--format", fmt]
                out[f"four-level.{cmd}.{fmt}"] = [cmd, "--scenario", FOUR_LEVEL, "--format", fmt]
    out["export-default"] = ["export-default"]
    return out


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_stdout_matches_golden(case, monkeypatch):
    monkeypatch.setenv("WVLAB_TOLERANCE", "0.5")  # a report reads only argv and the file
    with open(EXIT_CODES, encoding="utf-8") as fh:
        want_code = json.load(fh)[case]
    with open(os.path.join(GOLDEN_DIR, case), encoding="utf-8", newline="") as fh:
        want = fh.read()
    code, out = _run(_cases()[case])
    assert code == want_code
    assert out == want


def _write_golden():
    codes = {}
    for case, argv in _cases().items():
        codes[case], out = _run(argv)
        with open(os.path.join(GOLDEN_DIR, case), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    with open(EXIT_CODES, "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__" and sys.argv[1:] == ["--write-golden"]:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    _write_golden()
