"""Command-line interface: arguments, formats, exit codes, file output."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from builders import (
    FOUR_LEVEL,
    ONE_POINT_GRIDS,
    dense_strong,
    qr_unitary,
    random_state,
    weak_on_empty_path,
    with_path_detectors,
)
from wvlab.cli import (
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    format_complex,
    main,
)
from wvlab.qcore import DISPLAY_FLOOR, Ket, Operator
from wvlab.runner import run_weak_values
from wvlab.scenario import (
    Scenario,
    Site,
    SumRule,
    builtin,
    default_three_path,
    from_dict,
    load,
    save,
    to_dict,
)
from wvlab.twosv import PrePost, Timeline, sweep

TOP_KEYS = (
    "scenario",
    "weak_values",
    "postselection_probability",
    "clicks",
    "patterns",
    "weak_stats",
    "disturbance",
    "tolerance",
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_format_complex():
    assert format_complex(1.0 + 0.0j) == "1+0i"
    assert format_complex(-1.0) == "-1+0i"
    assert format_complex(-0.0 - 0.0j) == "0+0i"
    assert format_complex(0.5 - 2.25j) == "0.5-2.25i"
    assert format_complex(1 / 3) == "0.333333333333+0i"


def test_weak_values_text_default_scenario(capsys):
    code, out, err = run_cli(capsys, "weak-values")
    assert code == EXIT_OK and err == ""
    assert out.startswith("scenario: dim 3, stages t_i t_1 t_2 t_3 t_4 t_f\n")
    assert "postselection probability: 0.111111111111\n" in out
    lines = {ln.split()[0]: ln.split() for ln in out.splitlines() if ln.startswith("  ")}
    for site, value in [("E", "1+0i"), ("F", "-1+0i"), ("O", "0+0i"), ("O'", "0+0i")]:
        assert lines[site][2] == value
    assert "sum rules:" in out
    assert "E+F+D" in out or "D+E+F" in out


def test_weak_values_json_schema_and_values(capsys):
    code, payload, err = run_json(capsys, "weak-values")
    assert code == EXIT_OK and err == ""
    assert tuple(payload.keys()) == TOP_KEYS
    assert payload["scenario"]["dim"] == 3
    assert payload["scenario"]["patterns_provenance"] == "model-derived"
    table = payload["weak_values"]["table"]
    expected = {"E": 1, "F": -1, "D": 1, "O": 0, "E'": 1, "F'": -1, "O'": 0}
    assert [row["site"] for row in table] == list(expected)
    for row in table:
        assert abs(row["value"][0] - expected[row["site"]]) <= 1e-10
        assert abs(row["value"][1]) <= 1e-10
        assert abs(row["denominator"][0] - 1 / 3) <= 1e-10
    for rule in payload["weak_values"]["sum_rules"]:
        assert abs(rule["total"][0] - 1.0) <= 1e-10
        assert abs(rule["total"][1]) <= 1e-10
    assert payload["clicks"] == {} and payload["patterns"] == {}


def test_run_fig2_json_patterns_and_clicks(capsys):
    code, payload, err = run_json(capsys, "run", "--scenario", "builtin:three-path-fig2")
    assert code == EXIT_OK
    assert payload["scenario"]["coupling_order"] == ["D", "O", "E'", "F'"]
    assert abs(payload["postselection_probability"] - 1 / 3) <= 1e-10
    patterns = payload["patterns"]
    assert set(patterns) == {"D", "O+E'", "O+F'"}
    for p in patterns.values():
        assert abs(p - 1 / 3) <= 1e-10
    assert abs(payload["clicks"]["O"] - 2 / 3) <= 1e-10
    assert abs(payload["clicks"]["D"] - 1 / 3) <= 1e-10


def test_run_report_round_trips_from_cli_json(capsys):
    code, payload, _ = run_json(capsys, "run", "--scenario", "builtin:three-path-allweak")
    assert code == EXIT_OK
    assert payload["scenario"]["checksum"] == builtin("three-path-allweak").checksum
    assert set(payload["weak_stats"]) == {"E", "F", "D", "O", "E'", "F'", "O'"}


def test_disturbance_json_flags(capsys):
    code, payload, _ = run_json(
        capsys, "disturbance", "--scenario", "builtin:three-path-fig2"
    )
    assert code == EXIT_OK
    rows = {row["site"]: row for row in payload["disturbance"]}
    assert set(rows) == {"O", "O'"}
    assert rows["O"]["disturbed"] is True
    assert set(rows["O"]["branches"]) == {"O+E'", "O+F'"}
    assert rows["O'"]["disturbed"] is False and rows["O'"]["branches"] == {}


def test_disturbance_text_output(capsys):
    code, out, _ = run_cli(capsys, "disturbance", "--scenario", "builtin:three-path-fig2")
    assert code == EXIT_OK
    assert "O @ t_2: amplitude 0+0i, disturbed" in out
    assert "O' @ t_4: amplitude 0+0i, undisturbed" in out
    assert "branch O+E'" in out and "branch O+F'" in out


def test_validate_text_and_json(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate")
    assert code == EXIT_OK and err == ""
    assert out == "OK: dim 3, 6 stages, 7 sites, 0 pointers\n"
    code, payload, _ = run_json(capsys, "validate", "--scenario", "builtin:three-path-fig1")
    assert code == EXIT_OK
    assert payload["ok"] is True and payload["pointers"] == 2
    assert payload["checksum"] == builtin("three-path-fig1").checksum


def test_validate_checks_and_hashes_the_overridden_scenario(capsys):
    code, out, err = run_cli(capsys, "validate", "--scenario", "builtin:three-path-allweak", "--g", "5")
    assert code == EXIT_VALIDATION and out == ""
    assert err == ("validation error [schema]: pointer at 'E': ready/kicked overlap 0.0439 <= 0.9, "
                   "coupling is not weak\n")
    code, payload, _ = run_json(capsys, "validate", "--scenario", "builtin:three-path", "--tolerance", "1e-8")
    want = builtin("three-path").with_overrides(tolerance=1e-8).checksum
    assert code == EXIT_OK and payload["checksum"] == want != builtin("three-path").checksum


def test_unknown_builtin_exits_validation_and_names_it(capsys):
    code, out, err = run_cli(capsys, "weak-values", "--scenario", "builtin:nope")
    assert code == EXIT_VALIDATION and out == ""
    assert "nope" in err and "[schema]" in err


def test_missing_file_exits_io(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate", "--scenario", str(tmp_path / "gone.json"))
    assert code == EXIT_IO and out == ""
    assert "cannot read scenario" in err


@pytest.mark.parametrize(
    "old,new",
    [
        ('"tolerance": 1e-10', '"tolerance": 0.5, "tolerance": 1e-10'),
        ('"kind": "ket"', '"kind": "matrix", "kind": "ket"'),
    ],
    ids=["top-level", "nested"],
)
def test_repeated_key_exits_validation(capsys, tmp_path, old, new):
    text = json.dumps(to_dict(builtin("three-path")))
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == EXIT_VALIDATION and out == ""
    assert "validation error [schema]" in err and "appears twice" in err


@pytest.mark.parametrize("stages", [[], ["t_i"]], ids=["no-stage", "one-stage"])
def test_validate_refuses_fewer_than_two_stages(capsys, tmp_path, stages):
    d = to_dict(builtin("three-path"))
    d["stages"], d["segments"] = stages, []
    path = tmp_path / "short.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == "validation error [schema]: timeline needs at least two stages\n"


def _forge_stage(d):
    d["stages"][-1] = d["segments"][-1]["to"] = "t_f\npostselection probability: 1"


def _forge_label(d):
    d["sites"][3]["label"] = "O\nchecksum: forged"


@pytest.mark.parametrize("forge", [_forge_stage, _forge_label], ids=["stage", "label"])
def test_a_name_cannot_forge_report_lines(capsys, tmp_path, forge):
    d = to_dict(builtin("three-path"))
    forge(d)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    for command in ("validate", "weak-values"):
        code, out, err = run_cli(capsys, command, "--scenario", str(path), "--format", "text")
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("validation error [schema]: ") and err.count("\n") == 1


def test_path_starting_with_brace_is_opened_as_a_file(capsys, tmp_path, monkeypatch):
    shutil.copy(FOUR_LEVEL, tmp_path / "{x}.json")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "validate", "--scenario", "{x}.json")
    assert code == EXIT_OK and err == ""
    assert out.startswith("OK: dim 4,")


def test_corrupt_file_exits_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3,', encoding="utf-8")
    utf16 = tmp_path / "utf16.json"
    utf16.write_text(json.dumps(to_dict(default_three_path())), encoding="utf-16")
    assert utf16.read_bytes()[:2] == b"\xff\xfe"
    for path in (bad, utf16):
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path))
        assert code == EXIT_VALIDATION and out == ""
        assert "[schema]" in err


def test_degenerate_scenario_exits_3_but_reports(capsys, tmp_path):
    d = to_dict(builtin("three-path-fig1"))  # strong pointers at D and O
    s2 = 0.5**0.5
    d["post"] = [[0.0, 0.0], [s2, 0.0], [-s2, 0.0]]
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    code, out, err = run_cli(capsys, "weak-values", "--scenario", str(path), "--format", "json")
    assert code == EXIT_DEGENERATE
    payload = json.loads(out)
    assert payload["scenario"]["degenerate"] is True
    assert all(row["value"] is None for row in payload["weak_values"]["table"])
    # JSON keeps the raw probability, rounding residue above 0; text
    # prints it as 0, as run does, since its amplitude prints as 0.
    assert 0 < payload["postselection_probability"] < DISPLAY_FLOOR**2
    code, out, err = run_cli(capsys, "weak-values", "--scenario", str(path), "--format", "text")
    assert code == EXIT_DEGENERATE
    lines = out.splitlines()
    assert "postselection probability: 0" in lines
    assert "degenerate postselection: conditional statistics unavailable" in lines
    rows = lines[lines.index("weak values:") + 2:]
    assert [row.split()[2] for row in rows] == ["undefined"] * len(d["sites"])
    code, out, err = run_cli(capsys, "run", "--scenario", str(path), "--format", "text")
    assert code == EXIT_DEGENERATE
    assert "postselection probability: 0" in out.splitlines()
    # A tolerance below the residue leaves the report not degenerate, so
    # the probability beside its weak values prints as computed.
    code, out, err = run_cli(
        capsys, "weak-values", "--scenario", str(path), "--format", "text", "--tolerance", "1e-20"
    )
    assert code == 0
    lines = out.splitlines()
    assert "degenerate postselection: conditional statistics unavailable" not in lines
    assert "postselection probability: 0" not in lines
    assert any(line.startswith("postselection probability: 6.96") for line in lines)


def _tolerance_edge_scenario():
    """A random timeline with a sum rule at a stage whose pairing rounds below the amplitude.

    Every stage's <post(t)|pre(t)> equals the bare amplitude <post|U|pre>
    up to rounding; returns the scenario, the first stage whose pairing
    is smaller in magnitude, and that magnitude.
    """
    rng = np.random.default_rng(83)
    stages = tuple(f"t{k}" for k in range(10))
    for _ in range(100):
        tl = Timeline(stages, tuple(Operator(qr_unitary(rng, 3)) for _ in stages[1:]))
        pp = PrePost(Ket(random_state(rng, 3)), Ket(random_state(rng, 3)))
        sw = sweep(tl, pp)
        # abs() as the report takes it: np.abs may differ in the last bit.
        pairings = [abs(complex(np.vdot(sw.backward[k], sw.forward[k]))) for k in range(len(stages))]
        below = [k for k, a in enumerate(pairings) if a < abs(sw.amplitude)]
        if below:
            stage = stages[below[0]]
            basis = qr_unitary(rng, 3)
            sites = tuple(Site(f"b{j}", stage, "ket", basis[:, j]) for j in range(3))
            sc = Scenario(tl, pp, sites, sum_rules=(SumRule(("b0", "b1", "b2"), stage),))
            return sc, stage, pairings[below[0]]
    raise AssertionError("no stage pairing rounds below the amplitude")


def test_sum_rule_at_the_tolerance_edge_follows_the_report(capsys, tmp_path):
    # Every row divides by the report's one amplitude, so a row is
    # degenerate exactly when the report is, on either side of |amplitude|.
    sc, stage, edge = _tolerance_edge_scenario()
    amp = abs(sweep(sc.timeline, sc.prepost).amplitude)
    path = tmp_path / "edge.json"
    save(sc, path)

    rep = run_weak_values(sc.with_overrides(tolerance=edge))
    assert not rep.degenerate and not any(row.degenerate for row in rep.weak_values)
    (rule,) = rep.sum_rules
    assert abs(rule.total - 1.0) <= 1e-12
    code, out, err = run_cli(capsys, "weak-values", "--scenario", str(path), "--tolerance", repr(edge))
    assert (code, err) == (EXIT_OK, "")
    assert f"  b0+b1+b2 @ {stage} -> {format_complex(rule.total)}" in out.splitlines()

    rep = run_weak_values(sc.with_overrides(tolerance=amp))
    assert rep.degenerate and all(row.degenerate for row in rep.weak_values)
    assert rep.sum_rules == ()
    code, out, err = run_cli(capsys, "weak-values", "--scenario", str(path), "--tolerance", repr(amp))
    assert (code, err) == (EXIT_DEGENERATE, "")
    lines = out.splitlines()
    assert "degenerate postselection: conditional statistics unavailable" in lines
    assert "sum rules:" not in lines
    rows = lines[lines.index("weak values:") + 2:]
    assert [row.split()[2] for row in rows] == ["undefined"] * 3


def test_export_default_round_trip(capsys, tmp_path):
    path = tmp_path / "default.json"
    code, out, err = run_cli(capsys, "export-default", "--out", str(path))
    assert code == EXIT_OK and out == "" and err == ""
    assert load(str(path)).checksum == builtin("three-path").checksum

    code_a, out_a, _ = run_cli(capsys, "weak-values", "--scenario", str(path))
    code_b, out_b, _ = run_cli(capsys, "weak-values", "--scenario", "builtin:three-path")
    assert code_a == code_b == EXIT_OK
    assert out_a == out_b


def test_export_default_stdout_parses(capsys):
    code, out, _ = run_cli(capsys, "export-default")
    assert code == EXIT_OK
    sc = from_dict(json.loads(out))
    assert sc.checksum == builtin("three-path").checksum


def test_g_override_scales_weak_means(capsys):
    _, full, _ = run_json(
        capsys, "run", "--scenario", "builtin:three-path-allweak", "--g", "0.01"
    )
    _, half, _ = run_json(
        capsys, "run", "--scenario", "builtin:three-path-allweak", "--g", "0.005"
    )
    for site in ("E", "F", "D", "E'", "F'"):
        ratio = full["weak_stats"][site]["mean"] / half["weak_stats"][site]["mean"]
        assert abs(ratio - 2.0) <= 1e-3


def test_tolerance_flag_and_env(capsys, monkeypatch):
    _, payload, _ = run_json(capsys, "weak-values", "--tolerance", "0.5")
    assert payload["tolerance"] == 0.5
    # Only --tolerance overrides the file; the environment is not read.
    for raw in ("0.25", "not-a-number"):
        monkeypatch.setenv("WVLAB_TOLERANCE", raw)
        code, payload, _ = run_json(capsys, "weak-values")
        assert code == EXIT_OK and payload["tolerance"] == 1e-10


def test_out_writes_file_and_silences_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "run", "--scenario", "builtin:three-path-fig1",
        "--format", "json", "--out", str(path),
    )
    assert code == EXIT_OK and out == "" and err == ""
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert abs(payload["clicks"]["D"] - 1.0) <= 1e-10


def test_unwritable_out_exits_io(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    for command in ("weak-values", "validate", "export-default"):
        code, out, err = run_cli(capsys, command, "--out", str(target))
        assert code == EXIT_IO and out == ""
        assert "cannot write output" in err


def test_oversize_pointer_set_validates_but_does_not_run(capsys, tmp_path):
    path = tmp_path / "forty.json"
    path.write_text(json.dumps(with_path_detectors(40)), encoding="utf-8")
    assert run_cli(capsys, "run", "--scenario", str(path))[0] == EXIT_OK
    bound = "over the limit of 67108864"
    for name, d, summary, problem in (
        ("sixty-four", with_path_detectors(64), "dim 3, 6 stages, 71 sites, 64 pointers",
         "64 pointer registers exceed the limit of 63"),
        ("dense", dense_strong(30), "dim 9, 4 stages, 31 sites, 30 pointers",
         f"a coupling would hold 75497472 amplitudes, {bound}"),
        ("weak", weak_on_empty_path(30), "dim 3, 4 stages, 31 sites, 30 pointers",
         f"the readout block would hold 1073741824 amplitudes, {bound}"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", "--scenario", str(path))
        assert (code, out, err) == (EXIT_OK, f"OK: {summary}\n", "")
        want = f"validation error: {problem}\n"
        code, out, err = run_cli(capsys, "disturbance", "--scenario", str(path))
        assert (code, out, err) == (EXIT_VALIDATION, "", want)
        proc = subprocess.run(
            [sys.executable, "-m", "wvlab.cli", "run", "--scenario", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_VALIDATION, "", want)


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "wvlab.cli", "weak-values"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "weak values:" in proc.stdout


def test_render_text_keeps_fields_apart():
    import numpy as np

    from wvlab.cli import render_text
    from wvlab.pointer import WeakPointerStats
    from wvlab.runner import RunReport
    from wvlab.twosv import WeakValueResult

    z = complex(-0.123456789012, -0.123456789012)
    wide = format_complex(z)
    assert len(wide) == 31
    label, stage = "longsite", "longstage"
    report = RunReport(
        scenario=default_three_path(),
        coupling_order=(label,),
        weak_values=(WeakValueResult(label, stage, z, z, z, False),),
        sum_rules=(),
        postselection_probability=0.5,
        degenerate=False,
        clicks={label: 0.123456789012},
        patterns={(label, "othersite"): 0.123456789012},
        weak_stats={label: WeakPointerStats(-0.123456789012, 0.123456789012,
                                            np.zeros(1), np.ones(1))},
        disturbance=(),
    )
    rows = [ln.split() for ln in render_text(report).splitlines() if ln.startswith(f"  {label}")]
    assert rows == [
        [label, stage, wide, wide, wide],
        [label, "0.123456789012"],
        [f"{label}+othersite", "0.123456789012"],
        [label, "-0.123456789012", "0.123456789012"],
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grid", ONE_POINT_GRIDS)
def test_validate_refuses_a_packet_on_one_grid_point(capsys, tmp_path, grid):
    d = to_dict(builtin("three-path-allweak"))
    for entry in d["pointers"]:
        entry.update(grid)
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.startswith("validation error [schema]: pointer at 'E': grid too coarse")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "where,key,value,needle",
    [
        ("pre", 0, [float("nan"), 0.0], "pre[0]"),
        ("segment", 0, [float("inf"), 0.0], "matrix[0]"),
        ("pointer", "grid_extent", float("inf"), "grid_extent"),
        ("pointer", "grid_size", 10**9 + 1, "grid_size"),
        ("pointer", "grid_size", 3.5, "grid_size"),
    ],
)
def test_non_finite_and_unbounded_numbers_exit_validation(
    capsys, tmp_path, monkeypatch, where, key, value, needle
):
    import wvlab.pointer

    d = to_dict(builtin("three-path-allweak"))
    target = {"pre": d["pre"], "segment": d["segments"][1]["matrix"], "pointer": d["pointers"][0]}
    target[where][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d), encoding="utf-8")

    def no_grid(spec):
        raise AssertionError(f"grid built for rejected spec {spec}")

    monkeypatch.setattr(wvlab.pointer, "_weak_packets", no_grid)
    code, out, err = run_cli(capsys, "run", "--scenario", str(path))
    assert code == EXIT_VALIDATION and out == ""
    assert "[schema]" in err and needle in err
    assert "RuntimeWarning" not in err
