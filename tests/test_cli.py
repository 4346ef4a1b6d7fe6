"""Command-line interface: arguments, formats, exit codes, file output."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from wvlab.cli import (
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    TOLERANCE_ENV,
    format_complex,
    main,
)
from wvlab.runner import report_from_dict
from wvlab.scenario import builtin, default_three_path, from_dict, load, to_dict

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
    rep = report_from_dict(payload)
    assert rep.checksum == payload["scenario"]["checksum"]
    assert set(rep.weak_stats) == {"E", "F", "D", "O", "E'", "F'", "O'"}


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


def test_unknown_builtin_exits_validation_and_names_it(capsys):
    code, out, err = run_cli(capsys, "weak-values", "--scenario", "builtin:nope")
    assert code == EXIT_VALIDATION and out == ""
    assert "nope" in err and "[schema]" in err


def test_missing_file_exits_io(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate", "--scenario", str(tmp_path / "gone.json"))
    assert code == EXIT_IO and out == ""
    assert "cannot read scenario" in err


def test_corrupt_file_exits_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3,', encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", "--scenario", str(bad))
    assert code == EXIT_VALIDATION
    assert "[schema]" in err


def test_degenerate_scenario_exits_3_but_reports(capsys, tmp_path):
    d = to_dict(default_three_path())
    s2 = 0.5**0.5
    d["post"] = [[0.0, 0.0], [s2, 0.0], [-s2, 0.0]]
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    code, out, err = run_cli(capsys, "weak-values", "--scenario", str(path), "--format", "json")
    assert code == EXIT_DEGENERATE
    payload = json.loads(out)
    assert payload["scenario"]["degenerate"] is True
    assert all(row["value"] is None for row in payload["weak_values"]["table"])


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
    monkeypatch.setenv(TOLERANCE_ENV, "0.25")
    _, payload, _ = run_json(capsys, "weak-values")
    assert payload["tolerance"] == 0.25
    _, payload, _ = run_json(capsys, "weak-values", "--tolerance", "0.5")
    assert payload["tolerance"] == 0.5


def test_bad_tolerance_env_exits_validation(capsys, monkeypatch):
    monkeypatch.setenv(TOLERANCE_ENV, "not-a-number")
    code, out, err = run_cli(capsys, "weak-values")
    assert code == EXIT_VALIDATION and out == ""
    assert TOLERANCE_ENV in err


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
    code, out, err = run_cli(capsys, "weak-values", "--out", str(target))
    assert code == EXIT_IO
    assert "cannot write output" in err


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
        checksum="0" * 64,
        dim=3,
        stages=("t_i", stage),
        coupling_order=(label,),
        tolerance=1e-10,
        weak_values=(WeakValueResult(label, stage, z, z, z, False),),
        sum_rules=(),
        postselection_probability=0.5,
        degenerate=False,
        clicks={label: 0.123456789012},
        patterns={(label, "othersite"): 0.123456789012},
        weak_stats={label: WeakPointerStats(label, -0.123456789012, 0.123456789012,
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

    def no_register(spec):
        raise AssertionError(f"register built for rejected spec {spec}")

    monkeypatch.setattr(wvlab.pointer, "make_register", no_register)
    d = to_dict(builtin("three-path-allweak"))
    target = {"pre": d["pre"], "segment": d["segments"][1]["matrix"], "pointer": d["pointers"][0]}
    target[where][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--scenario", str(path))
    assert code == EXIT_VALIDATION and out == ""
    assert "[schema]" in err and needle in err
    assert "RuntimeWarning" not in err
