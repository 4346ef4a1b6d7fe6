"""Scenario construction, validation codes, file round-trips, builtins."""

from __future__ import annotations

import json

import numpy as np
import pytest

from wvlab.errors import (
    NON_NORMALIZED_STATE,
    NON_PROJECTOR_SITE,
    NON_UNITARY_SEGMENT,
    SCHEMA,
    UNKNOWN_SITE,
    UNKNOWN_STAGE,
    ContractError,
    ScenarioError,
)
from wvlab.pointer import PointerSpec
from wvlab.scenario import (
    BUILTIN_NAMES,
    builtin,
    default_three_path,
    dumps,
    from_dict,
    load,
    loads,
    resolve,
    save,
    three_path_rank2_crossing,
    to_dict,
)
from wvlab.twosv import weak_value

S3 = 1.0 / np.sqrt(3.0)
PSI = np.array([S3, S3, S3])
CHI = np.array([S3, S3, -S3])

EXPECTED_WEAK_VALUES = {"E": 1.0, "F": -1.0, "D": 1.0, "O": 0.0, "E'": 1.0, "F'": -1.0, "O'": 0.0}


def _tampered(**edits):
    d = to_dict(default_three_path())
    d.update(edits)
    return d


def test_default_scenario_layout():
    sc = default_three_path()
    assert sc.dim == 3
    assert sc.timeline.stages == ("t_i", "t_1", "t_2", "t_3", "t_4", "t_f")
    assert tuple(s.label for s in sc.sites) == ("E", "F", "D", "O", "E'", "F'", "O'")
    assert tuple(s.stage for s in sc.sites) == ("t_1", "t_1", "t_2", "t_2", "t_3", "t_3", "t_4")
    assert sc.system_labels == ("1", "2", "3")
    assert not sc.is_degenerate()
    assert len(sc.checksum) == 64


def test_default_weak_values_match_direct_formula():
    # Identity dynamics: the direct formula needs no evolution at all.
    sc = default_three_path()
    den = CHI.conj() @ PSI
    for site in sc.sites:
        num = CHI.conj() @ site.projector.matrix @ PSI
        res = weak_value(sc.timeline, sc.prepost, site.projector, site.stage)
        assert abs(res.value - num / den) <= 1e-12
        assert abs(res.value - EXPECTED_WEAK_VALUES[site.label]) <= 1e-12


def test_rank2_crossing_variant_has_null_weak_values_too():
    sc = three_path_rank2_crossing()
    for label in ("O", "O'"):
        site = sc.site(label)
        assert np.allclose(site.projector.matrix, np.diag([0.0, 1.0, 1.0]))
        res = weak_value(sc.timeline, sc.prepost, site.projector, site.stage)
        assert abs(res.value) <= 1e-12


def _brute_strong_patterns(psi, chi, couplings, nregs):
    """Independent strong-coupling oracle: plain tensor arithmetic."""
    t = np.asarray(psi, dtype=complex)
    for _ in range(nregs):
        t = np.multiply.outer(t, np.array([1.0, 0.0]))
    for proj, k in couplings:
        ax = 1 + k
        hit = np.tensordot(proj, t, axes=(1, 0))
        miss = t - hit
        hit = np.moveaxis(hit, ax, -1)[..., :1]
        hit = np.concatenate([np.zeros_like(hit), hit], axis=-1)
        t = np.moveaxis(hit, -1, ax) + miss
    final = np.tensordot(np.asarray(chi).conj(), t, axes=(0, 0))
    prob = float(np.linalg.norm(final) ** 2)
    patterns = {}
    for combo in np.ndindex(final.shape):
        patterns[combo] = float(abs(final[combo]) ** 2) / prob
    return prob, patterns


def test_rank1_and_rank2_crossings_differ_in_back_action():
    # Strong pointers at E, F (t_1) and O (t_2) tell the models apart.
    pointers = tuple(PointerSpec(site=s, kind="strong") for s in ("E", "F", "O"))
    from wvlab.runner import run_pointers

    p2 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    p3 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    u = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    rank1 = np.outer(u, u).astype(complex)
    rank2 = (p2 + p3).astype(complex)

    for variant, crossing, want_o in (
        (default_three_path(pointers), rank1, 0.0),
        (three_path_rank2_crossing(pointers), rank2, 2.0 / 3.0),
    ):
        rep = run_pointers(variant)
        prob, patterns = _brute_strong_patterns(
            PSI, CHI, [(p2, 0), (p3, 1), (crossing, 2)], 3
        )
        assert abs(rep.postselection_probability - prob) <= 1e-12
        assert abs(rep.postselection_probability - 1.0 / 3.0) <= 1e-12
        assert abs(rep.clicks["O"] - want_o) <= 1e-12
        for combo, value in patterns.items():
            pattern = tuple(
                s for s, bit in zip(("E", "F", "O"), combo) if bit == 1
            )
            assert abs(rep.patterns.get(pattern, 0.0) - value) <= 1e-12


def test_builtin_names_and_pointer_sets():
    assert set(BUILTIN_NAMES) == {
        "three-path",
        "three-path-fig1",
        "three-path-fig1-oprime",
        "three-path-fig2",
        "three-path-allweak",
    }
    layouts = {
        "three-path": (),
        "three-path-fig1": ("D", "O"),
        "three-path-fig1-oprime": ("D", "O", "O'"),
        "three-path-fig2": ("D", "O", "E'", "F'"),
        "three-path-allweak": ("E", "F", "D", "O", "E'", "F'", "O'"),
    }
    for name, sites in layouts.items():
        sc = builtin(name)
        assert tuple(ps.site for ps in sc.pointers) == sites
        kinds = {ps.kind for ps in sc.pointers}
        if name == "three-path-allweak":
            assert kinds == {"weak"}
        elif sites:
            assert kinds == {"strong"}
    with pytest.raises(ScenarioError) as err:
        builtin("nope")
    assert "nope" in str(err.value)


def test_round_trip_through_dict_and_text():
    for name in BUILTIN_NAMES:
        sc = builtin(name)
        d = to_dict(sc)
        again = to_dict(from_dict(d))
        assert again == d
        assert dumps(loads(dumps(sc))) == dumps(sc)
        assert from_dict(d).checksum == sc.checksum


def test_round_trip_through_file(tmp_path):
    sc = builtin("three-path-fig2")
    path = tmp_path / "scenario.json"
    save(sc, path)
    loaded = load(path)
    assert to_dict(loaded) == to_dict(sc)
    # resolve() accepts both paths and builtin: names.
    assert resolve(str(path)).checksum == sc.checksum
    assert resolve("builtin:three-path-fig2").checksum == sc.checksum


def test_load_accepts_json_text():
    sc = loads(dumps(builtin("three-path")))
    assert sc.dim == 3
    direct = load(dumps(builtin("three-path")))
    assert direct.checksum == sc.checksum


def test_rank2_variant_round_trips_matrix_sites():
    sc = three_path_rank2_crossing()
    again = from_dict(to_dict(sc))
    assert again.site("O").kind == "matrix"
    assert np.array_equal(again.site("O").projector.matrix, sc.site("O").projector.matrix)


@pytest.mark.parametrize(
    "edits,code,needle",
    [
        ({"dim": None}, SCHEMA, "dim"),
        ({"stages": ["t_i"]}, SCHEMA, "stages"),
        ({"pre": [[0.9, 0.0], [0.0, 0.0], [0.0, 0.0]]}, NON_NORMALIZED_STATE, "pre"),
        ({"extra_key": 1}, SCHEMA, "extra_key"),
        ({"tolerance": "tight"}, SCHEMA, "tolerance"),
    ],
)
def test_top_level_schema_rejections(edits, code, needle):
    with pytest.raises(ScenarioError) as err:
        from_dict(_tampered(**edits))
    assert err.value.code == code
    assert needle in str(err.value)


def test_missing_key_rejected():
    d = to_dict(default_three_path())
    del d["segments"]
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == SCHEMA
    assert "segments" in str(err.value)


def test_non_unitary_segment_rejected_with_name():
    d = to_dict(default_three_path())
    d["segments"][1]["matrix"][0] = [1.001, 0.0]  # breaks unitarity by ~1e-3
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == NON_UNITARY_SEGMENT
    assert "t_1->t_2" in str(err.value)


def test_pointer_at_undeclared_site_rejected_with_name():
    d = to_dict(default_three_path())
    d["pointers"] = [{"site": "Z", "kind": "strong"}]
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == UNKNOWN_SITE
    assert "Z" in str(err.value)


def test_non_projector_site_rejected_with_name():
    d = to_dict(default_three_path())
    d["sites"][2] = {
        "label": "D",
        "stage": "t_2",
        "kind": "matrix",
        "data": [[0.5, 0.0]] * 9,
    }
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == NON_PROJECTOR_SITE
    assert "D" in str(err.value)


def test_zero_ket_site_rejected():
    d = to_dict(default_three_path())
    d["sites"][0]["data"] = [[0.0, 0.0]] * 3
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == NON_PROJECTOR_SITE


def test_site_at_unknown_stage_rejected():
    d = to_dict(default_three_path())
    d["sites"][0]["stage"] = "t_9"
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == UNKNOWN_STAGE
    assert "t_9" in str(err.value)


def test_duplicate_site_and_duplicate_pointer_rejected():
    d = to_dict(default_three_path())
    d["sites"][1]["label"] = "E"
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == SCHEMA

    d = to_dict(builtin("three-path-fig1"))
    d["pointers"].append({"site": "D", "kind": "weak"})
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == SCHEMA
    assert "D" in str(err.value)


def test_bad_pointer_parameters_rejected():
    d = to_dict(default_three_path())
    d["pointers"] = [{"site": "O", "kind": "weak", "grid_size": 200}]
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == SCHEMA
    d["pointers"] = [{"site": "O", "kind": "weak", "g": 1.0}]
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert "overlap" in str(err.value)


def test_incomplete_sum_rule_rejected():
    d = to_dict(default_three_path())
    d["sum_rules"][0]["sites"] = ["E", "F"]
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == SCHEMA
    d = to_dict(default_three_path())
    d["sum_rules"][0]["sites"] = ["E", "F", "ghost"]
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == UNKNOWN_SITE


def test_segment_bookkeeping_rejections():
    d = to_dict(default_three_path())
    d["segments"][0]["to"] = "t_2"  # skips a stage
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == SCHEMA
    d = to_dict(default_three_path())
    d["segments"] = d["segments"][:4]
    with pytest.raises(ScenarioError):
        from_dict(d)


def test_corrupted_json_rejected():
    with pytest.raises(ScenarioError) as err:
        loads("{ not json")
    assert err.value.code == SCHEMA
    for text in ('{"dim": 1' + "0" * 5000 + "}", "[" * 100_000 + "]" * 100_000):
        with pytest.raises(ScenarioError) as err:
            loads(text)
        assert err.value.code == SCHEMA


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load(tmp_path / "missing.json")


def test_with_overrides():
    sc = builtin("three-path-allweak")
    out = sc.with_overrides(tolerance=1e-8, g=0.005)
    assert out.tolerance == 1e-8
    assert all(ps.g == 0.005 for ps in out.pointers)
    assert sc.tolerance == 1e-10  # original untouched
    strong = builtin("three-path-fig1").with_overrides(g=0.005)
    assert all(ps.g == 0.01 for ps in strong.pointers)  # strong specs keep defaults
    with pytest.raises(ContractError):
        sc.with_overrides(g=2.0)  # overlap too small


def test_degenerate_scenario_flagged():
    d = to_dict(default_three_path())
    s2 = 1.0 / np.sqrt(2.0)
    d["post"] = [[0.0, 0.0], [s2, 0.0], [-s2, 0.0]]
    sc = from_dict(d)
    assert sc.is_degenerate()


def test_checksums_distinguish_builtins():
    sums = {builtin(name).checksum for name in BUILTIN_NAMES}
    assert len(sums) == len(BUILTIN_NAMES)
    assert builtin("three-path").checksum == builtin("three-path").checksum


def test_dumps_is_valid_json_in_stable_key_order():
    d = json.loads(dumps(default_three_path()))
    assert list(d.keys()) == [
        "dim",
        "stages",
        "segments",
        "pre",
        "post",
        "sites",
        "pointers",
        "sum_rules",
        "tolerance",
    ]
    assert d["sites"][0] == {
        "label": "E",
        "stage": "t_1",
        "kind": "ket",
        "data": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
    }


@pytest.mark.parametrize(
    "kind,element",
    [
        ("segments", "segments[1]"),
        ("sites", "sites[1]"),
        ("pointers", "pointers[1]"),
        ("sum_rules", "sum_rules[1]"),
    ],
)
def test_nested_objects_reject_unknown_keys(kind, element):
    d = to_dict(builtin("three-path-fig1"))
    # Strong pointers carry all six fields that to_dict writes.
    assert set(d["pointers"][1]) == {"site", "kind", "g", "sigma", "grid_size", "grid_extent"}
    from_dict(d)
    d[kind][1]["colour"] = "red"
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == SCHEMA
    assert "colour" in str(err.value) and element in str(err.value)


def test_owning_types_raise_coded_errors():
    from wvlab.qcore import identity, ket, operator
    from wvlab.twosv import PrePost, Timeline

    assert issubclass(ScenarioError, ContractError)
    with pytest.raises(ScenarioError) as err:
        Timeline(("a", "b"), (operator([[1.0, 1.0], [0.0, 1.0]]),))
    assert err.value.code == NON_UNITARY_SEGMENT and "a->b" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        Timeline(("a", "a"), (identity(2),))
    assert err.value.code == SCHEMA
    with pytest.raises(ScenarioError) as err:
        PrePost(ket([1.0, 0.0]), ket([1.0, 1.0]))
    assert err.value.code == NON_NORMALIZED_STATE and "post" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        PointerSpec(site="O", kind="weak", grid_size=201.0)
    assert err.value.code == SCHEMA


@pytest.mark.parametrize(
    "edit,code",
    [
        (lambda d: d["post"].__setitem__(1, [float("-inf"), 0.0]), SCHEMA),
        (lambda d: d["sites"][0]["data"].__setitem__(0, [0.0, float("nan")]), SCHEMA),
        (lambda d: d["segments"][0]["matrix"].__setitem__(0, [10**400, 0]), SCHEMA),
        (lambda d: d["segments"][0]["matrix"].__setitem__(0, [1e300, 0.0]), NON_UNITARY_SEGMENT),
        (lambda d: d["sites"][0]["data"].__setitem__(1, [1e300, 0.0]), NON_PROJECTOR_SITE),
        (lambda d: d.__setitem__("dim", 10**9 + 1), SCHEMA),
        (lambda d: d.__setitem__("tolerance", float("nan")), SCHEMA),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_and_overflowing_entries_rejected(edit, code):
    d = to_dict(default_three_path())
    edit(d)
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == code


@pytest.mark.parametrize(
    "field,value",
    [
        ("g", float("nan")),
        ("sigma", 1e300),
        ("sigma", 1e-300),
        ("grid_extent", 1e300),
        ("grid_size", True),
    ],
)
def test_pointer_numbers_must_be_finite_and_bounded(field, value):
    d = to_dict(builtin("three-path-allweak"))
    d["pointers"][0][field] = value
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == SCHEMA and field in str(err.value)
