"""Scenario construction, validation codes, file round-trips, builtins."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from builders import (
    CHI,
    EXPECTED_WEAK_VALUES,
    FOUR_LEVEL,
    ONE_POINT_GRIDS,
    PSI,
    assemble,
    pairs,
    qr_unitary,
    random_state,
)
from wvlab import scenario as scenario_module
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
from wvlab.qcore import Ket, Operator, identity
from wvlab.runner import run_weak_values
from wvlab.scenario import (
    BUILTIN_NAMES,
    Scenario,
    Site,
    SumRule,
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
from wvlab.twosv import PrePost, Timeline, identity_timeline, sweep, weak_value


def _tampered(**edits):
    d = to_dict(default_three_path())
    d.update(edits)
    return d


_POST = to_dict(default_three_path())["post"]


def test_default_scenario_layout():
    sc = default_three_path()
    assert sc.dim == 3
    assert sc.timeline.stages == ("t_i", "t_1", "t_2", "t_3", "t_4", "t_f")
    assert tuple(s.label for s in sc.sites) == ("E", "F", "D", "O", "E'", "F'", "O'")
    assert tuple(s.stage for s in sc.sites) == ("t_1", "t_1", "t_2", "t_2", "t_3", "t_3", "t_4")
    assert abs(sweep(sc.timeline, sc.prepost).amplitude) > sc.tolerance
    assert not run_weak_values(sc).degenerate
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
    path = tmp_path / "scenario.json"
    for name, sc in _file_scenarios():
        # dumps is json's indent=2 text of to_dict byte for byte, and save
        # streams exactly that text + "\n".
        text = json.dumps(to_dict(sc), indent=2)
        assert dumps(sc) == text, name
        save(sc, path)
        assert path.read_bytes() == (text + "\n").encode("utf-8"), name
        loaded = load(path)
        assert to_dict(loaded) == to_dict(sc), name
        assert loaded.checksum == resolve(str(path)).checksum == sc.checksum, name
    # resolve() accepts builtin: names as well as paths.
    sc = builtin("three-path-fig2")
    assert resolve("builtin:three-path-fig2").checksum == sc.checksum
    # Files are read as UTF-8, so non-ASCII labels load as written.
    d = to_dict(sc)
    d["sites"][0]["label"] = d["sum_rules"][0]["sites"][1] = "É"
    path.write_bytes(json.dumps(d, ensure_ascii=False).encode("utf-8"))
    assert load(path).sites[0].label == "É"


def test_loads_parses_text_and_load_opens_paths_only(tmp_path):
    text = dumps(builtin("three-path"))
    sc = loads(text)
    assert sc.dim == 3
    # A path is opened as a path, even one whose name starts with "{".
    path = tmp_path / "{x}.json"
    path.write_text(text, encoding="utf-8")
    assert load(path).checksum == load(str(path)).checksum == sc.checksum
    with pytest.raises(OSError):
        load(text)


@pytest.mark.parametrize(
    "old,new,key",
    [
        ('"tolerance": 1e-10', '"tolerance": 0.5, "tolerance": 1e-10', "tolerance"),
        ('"kind": "ket"', '"kind": "matrix", "kind": "ket"', "kind"),
    ],
    ids=["top-level", "nested"],
)
def test_repeated_key_is_rejected(old, new, key):
    text = json.dumps(to_dict(builtin("three-path")))
    assert old in text
    loads(text)
    with pytest.raises(ScenarioError) as err:
        loads(text.replace(old, new, 1))
    assert err.value.code == SCHEMA
    assert repr(key) in str(err.value)


def test_rank2_variant_round_trips_matrix_sites():
    sc = three_path_rank2_crossing()
    again = from_dict(to_dict(sc))
    assert again.site("O").kind == "matrix"
    assert np.array_equal(again.site("O").projector.matrix, sc.site("O").projector.matrix)


def _random_site_scenario(rng) -> Scenario:
    """Random unitary timeline with unnormalized ket sites and a matrix site of random rank."""
    dim = int(rng.integers(2, 6))
    stages = ("a", "b", "c")
    sites = [
        Site(f"k{j}", stages[j], "ket", rng.normal(size=dim) + 1j * rng.normal(size=dim))
        for j in range(3)
    ]
    cols = qr_unitary(rng, dim)[:, : int(rng.integers(1, dim + 1))]
    sites.append(Site("m", "b", "matrix", cols @ cols.conj().T))
    return Scenario(
        timeline=Timeline(stages, (Operator(qr_unitary(rng, dim)), Operator(qr_unitary(rng, dim)))),
        prepost=PrePost(Ket(random_state(rng, dim)), Ket(random_state(rng, dim))),
        sites=tuple(sites),
    )


def _random_file_scenario(rng, pointers=True, sum_rule=True, stage="b", label="m") -> Scenario:
    """A _random_site_scenario with its middle stage and matrix site renamed.

    With sum_rule, the matrix site's complement joins it in a sum rule;
    with pointers, a strong and a weak pointer with no default field sit
    on a ket site and on the matrix site.
    """
    sc = _random_site_scenario(rng)
    *kets, m = sc.sites
    stages = ("a", stage, "c")
    sites = [replace(s, stage=stage) if s.stage == "b" else s for s in kets]
    sites.append(replace(m, label=label, stage=stage))
    rules = ()
    if sum_rule:
        sites.append(Site(label + "'", stage, "matrix", np.eye(sc.dim) - m.projector.matrix))
        rules = (SumRule((label, label + "'"), stage),)
    specs = ()
    if pointers:
        specs = (
            PointerSpec("k0", "strong", g=0.05, sigma=0.5, grid_size=11, grid_extent=3.0),
            PointerSpec(label, "weak", g=0.02, sigma=1.5, grid_size=301, grid_extent=8.0),
        )
    return Scenario(
        timeline=Timeline(stages, sc.timeline.segments),
        prepost=sc.prepost,
        sites=tuple(sites),
        pointers=specs,
        sum_rules=rules,
    )


def test_site_is_its_file_entry():
    # A site takes its file keys and derives its projector from them.
    assert [f.name for f in fields(Site) if f.init] == ["label", "stage", "kind", "data"]
    with pytest.raises(TypeError):
        Site("X", "t_1", "ket", [1.0, 0.0, 0.0], projector=identity(3))
    site = Site("X", "t_1", "ket", [0.0, 2.0, 0.0])
    assert np.array_equal(site.projector.matrix, np.diag([0.0, 1.0, 0.0]))
    assert not site.data.flags.writeable and not site.projector.matrix.flags.writeable
    # So a saved scenario loads with every projector bit for bit.
    rng = np.random.default_rng(61)
    scenarios = [builtin(name) for name in BUILTIN_NAMES] + [three_path_rank2_crossing()]
    scenarios += [_random_site_scenario(rng) for _ in range(30)]
    kinds = set()
    for sc in scenarios:
        again = from_dict(to_dict(sc))
        assert again.checksum == sc.checksum
        assert len(again.sites) == len(sc.sites)
        for site, loaded in zip(sc.sites, again.sites):
            kinds.add(site.kind)
            assert (loaded.label, loaded.stage, loaded.kind) == (site.label, site.stage, site.kind)
            assert loaded.data.tobytes() == site.data.tobytes()
            assert loaded.projector.matrix.tobytes() == site.projector.matrix.tobytes()
    assert kinds == {"ket", "matrix"}


@pytest.mark.parametrize(
    "kind,data,code,message",
    [
        ("vector", None, SCHEMA, "site 'X' kind must be 'ket' or 'matrix', got 'vector'"),
        ("ket", [0.0, 0.0, 0.0], NON_PROJECTOR_SITE,
         "site 'X': cannot build a projector from a vector of norm 0"),
        ("matrix", np.diag([0.5, 1.0, 0.0]), NON_PROJECTOR_SITE,
         "site 'X' operator is not a projector"),
    ],
)
def test_site_refuses_what_has_no_projector(kind, data, code, message):
    with pytest.raises(ScenarioError) as err:
        Site("X", "t_1", kind, data)
    assert (err.value.code, str(err.value)) == (code, message)
    # A file entry of that kind is refused with the same code and message,
    # an unknown kind before its data is read.
    d = to_dict(default_three_path())
    d["sites"][0] = {"label": "X", "stage": "t_1", "kind": kind}
    if data is not None:
        d["sites"][0]["data"] = [[float(v), 0.0] for v in np.ravel(data)]
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert (err.value.code, str(err.value)) == (code, message)


@pytest.mark.parametrize(
    "edits,code,needle",
    [
        ({"dim": None}, SCHEMA, "dim"),
        ({"stages": ["t_i"]}, SCHEMA, "stages"),
        ({"pre": [[0.9, 0.0], [0.0, 0.0], [0.0, 0.0]]}, NON_NORMALIZED_STATE, "pre"),
        ({"extra_key": 1}, SCHEMA, "extra_key"),
        ({"tolerance": "tight"}, SCHEMA, "tolerance"),
        # A complex number is a plain-JSON [re, im] pair; anything else,
        # a tuple or numpy scalar from a hand-built dict too, is refused
        # with the pair named.
        *(
            pytest.param({"post": [_POST[0], pair, _POST[2]]}, SCHEMA,
                         f"post[1] must be a [re, im] pair, got {pair!r}", id=name)
            for name, pair in (
                ("tuple-pair", tuple(_POST[1])),
                ("numpy-pair", [np.float64(v) for v in _POST[1]]),
                ("bool-pair", [True, 0.0]),
                ("string-pair", ["0.5", 0.0]),
                ("three-long-pair", [0.5, 0.0, 0.0]),
                ("overflowing-pair", [10**400, 0]),
                ("bare-number", 5),
            )
        ),
        pytest.param({"post": [_POST[0], [float("inf"), 0.0], _POST[2]]}, SCHEMA,
                     "post[1] is not finite", id="infinite-pair"),
        # An optional list has the type check of a required one.
        pytest.param({"pointers": {}}, SCHEMA, "scenario.pointers has the wrong type",
                     id="pointers-object"),
        pytest.param({"sum_rules": 5}, SCHEMA, "scenario.sum_rules has the wrong type",
                     id="sum-rules-number"),
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
    # A projector of another dimension is refused at load too, so no
    # pointer coupling ever meets one.
    sc = default_three_path()
    with pytest.raises(ScenarioError) as err:
        replace(sc, sites=sc.sites + (Site("X", "t_2", "ket", [1.0, 0.0]),))
    assert err.value.code == SCHEMA
    assert "'X' projector has dimension 2" in str(err.value)


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


def test_corrupted_json_rejected(tmp_path):
    with pytest.raises(ScenarioError) as err:
        loads("{ not json")
    assert err.value.code == SCHEMA
    for text in ('{"dim": 1' + "0" * 5000 + "}", "[" * 100_000 + "]" * 100_000):
        with pytest.raises(ScenarioError) as err:
            loads(text)
        assert err.value.code == SCHEMA
    # Files are UTF-8: a valid scenario saved as UTF-16 (bytes ff fe ...)
    # or with one stray byte is rejected, not decoded another way.
    utf16, stray = tmp_path / "utf16.json", tmp_path / "stray.json"
    utf16.write_bytes(dumps(default_three_path()).encode("utf-16"))
    stray.write_bytes(dumps(default_three_path()).encode("utf-8").replace(b'"E"', b'"\xff"'))
    for path in (utf16, stray):
        with pytest.raises(ScenarioError) as err:
            load(path)
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
    assert sc.with_overrides() is sc
    assert builtin("three-path").with_overrides(tolerance=1e-8).checksum.startswith("0d607ad3")
    # An override is checked as the same value in a file is.
    for key, value in [("g", False), ("g", "0.02"), ("tolerance", "1e-8"), ("tolerance", True),
                       ("g", 10**400)]:
        d = to_dict(sc)
        for entry in d["pointers"] if key == "g" else [d]:
            entry[key] = value
        with pytest.raises(ScenarioError) as from_file:
            from_dict(d)
        with pytest.raises(ScenarioError) as overridden:
            sc.with_overrides(**{key: value})
        assert overridden.value.code == SCHEMA
        assert str(overridden.value) == str(from_file.value)


def test_degenerate_scenario_flagged():
    d = to_dict(default_three_path())
    s2 = float(1.0 / np.sqrt(2.0))
    d["post"] = [[0.0, 0.0], [s2, 0.0], [-s2, 0.0]]
    sc = from_dict(d)
    assert abs(sweep(sc.timeline, sc.prepost).amplitude) <= sc.tolerance
    assert run_weak_values(sc).degenerate


def test_checksums_distinguish_builtins():
    sums = {builtin(name).checksum for name in BUILTIN_NAMES}
    assert len(sums) == len(BUILTIN_NAMES)
    assert builtin("three-path").checksum == builtin("three-path").checksum


def _seeded_d5_scenario() -> Scenario:
    """A seeded scenario that is no built-in: d = 5, four stages, rank-1
    and rank-2 sites, a strong and a weak pointer and a sum rule."""
    rng = np.random.default_rng(20261018)
    dim, stages = 5, ["a", "b", "c", "d"]
    mats = [qr_unitary(rng, dim) for _ in stages[1:]]
    pre, post = (v / np.linalg.norm(v) for v in rng.normal(size=(2, dim)) + 0.5j)
    basis = qr_unitary(rng, dim)
    rank2 = basis[:, 3:] @ basis[:, 3:].conj().T
    sites = [{"label": f"b{j}", "stage": "b", "kind": "ket", "data": pairs(basis[:, j])}
             for j in range(3)]
    sites.append({"label": "r", "stage": "b", "kind": "matrix", "data": pairs(rank2)})
    pointers = [{"site": "b0", "kind": "strong"}, {"site": "r", "kind": "weak", "g": 0.02}]
    return from_dict(assemble(dim, stages, mats, pre, post, sites, pointers,
                              sum_rules=[{"sites": ["b0", "b1", "b2", "r"], "stage": "b"}]))


def _edge_float_scenario() -> Scenario:
    """Floats whose repr takes every form, and names json must escape.

    The ket site holds -0.0, the smallest subnormal, exponent forms and
    inexact decimals; the segment -1 writes -0.0 off its diagonal; the
    stage names and site labels hold '"', '\\' and non-ASCII text.
    """
    edge = [complex(-0.0, 5e-324), complex(1e-7, 1e16), complex(1e22, 0.1), complex(1 / 3, -0.0)]
    stages = ("a", 'b"\\', "ç")
    sites = (
        Site('é"\\', stages[1], "ket", edge),
        Site("Ω", stages[2], "matrix", np.diag([1.0, 0.0, 1.0, 0.0])),
    )
    return Scenario(
        timeline=Timeline(stages, (Operator(-np.eye(4)), identity(4))),
        prepost=PrePost(Ket([1.0, 0.0, 0.0, 0.0]), Ket([0.6, 0.8j, 0.0, 0.0])),
        sites=sites,
        pointers=(PointerSpec('é"\\', "weak", g=0.1),),
        tolerance=1e-7,
    )


def _file_scenarios():
    """(name, scenario) for every scenario whose file bytes and checksum are pinned."""
    for name in BUILTIN_NAMES:
        yield name, builtin(name)
    yield "rank-2", three_path_rank2_crossing()
    yield "four-level", load(FOUR_LEVEL)
    yield "seeded-d5", _seeded_d5_scenario()
    rng = np.random.default_rng(62)
    for n in range(3):
        yield f"random-{n}", _random_file_scenario(rng)
    yield "no-pointers", _random_file_scenario(rng, pointers=False)
    yield "no-sum-rules", _random_file_scenario(rng, sum_rule=False)
    yield "bare", _random_file_scenario(rng, pointers=False, sum_rule=False)
    yield "non-ascii", _random_file_scenario(rng, stage="τ₂", label="Ω")
    yield "edge-floats", _edge_float_scenario()


def test_checksum_is_the_sha256_of_default_flag_canonical_json():
    for name, sc in _file_scenarios():
        canonical = json.dumps(to_dict(sc), sort_keys=True, separators=(",", ":"))
        assert sc.checksum == hashlib.sha256(canonical.encode("utf-8")).hexdigest(), name


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
    from wvlab.qcore import Ket, Operator, identity
    from wvlab.twosv import PrePost, Timeline

    assert issubclass(ScenarioError, ContractError)
    with pytest.raises(ScenarioError) as err:
        Timeline(("a", "b"), (Operator([[1.0, 1.0], [0.0, 1.0]]),))
    assert err.value.code == NON_UNITARY_SEGMENT and "a->b" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        Timeline(("a", "a"), (identity(2),))
    assert err.value.code == SCHEMA
    with pytest.raises(ScenarioError) as err:
        PrePost(Ket([1.0, 0.0]), Ket([1.0, 1.0]))
    assert err.value.code == NON_NORMALIZED_STATE and "post" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        PointerSpec(site="O", kind="weak", grid_size=201.0)
    assert err.value.code == SCHEMA
    for stages in ((), ("a",)):
        with pytest.raises(ScenarioError, match="timeline needs at least two stages") as err:
            Timeline(stages, ())
        assert err.value.code == SCHEMA
    with pytest.raises(ScenarioError, match="stage name 2 must be") as err:
        Timeline(("a", 2), (identity(2),))
    assert err.value.code == SCHEMA
    with pytest.raises(ScenarioError, match=r"segments of mixed dimension \[2, 3\]") as err:
        Timeline(("a", "b", "c"), (identity(2), identity(3)))
    assert err.value.code == SCHEMA
    sc = default_three_path()
    for label in (5, None, b"E2"):
        with pytest.raises(ScenarioError) as err:
            replace(sc, sites=sc.sites + (Site(label, "t_1", "ket", [1.0, 0.0, 0.0]),))
        assert err.value.code == SCHEMA and repr(label) in str(err.value)
    for sites in ("DEF", [["D"]], ("D", 1), None):
        with pytest.raises(ScenarioError) as err:
            SumRule(sites, "t_1")
        assert err.value.code == SCHEMA and repr(sites) in str(err.value)
    rule = SumRule(["D", "E", "F"], "t_1")
    assert rule.sites == ("D", "E", "F") and hash(rule) == hash(SumRule(("D", "E", "F"), "t_1"))


def _segment_twice():
    d = to_dict(default_three_path())
    d["segments"].append(d["segments"][0])
    return from_dict(d)


def _with(**changes):
    return lambda: replace(default_three_path(), **changes)


@pytest.mark.parametrize(
    "build,code,message",
    [
        (lambda: Ket([[1.0, 0.0]]), None, r"ket needs a 1-d amplitude vector, got shape \(1, 2\)"),
        (lambda: Ket([]), None, r"ket needs a 1-d amplitude vector, got shape \(0,\)"),
        (lambda: Operator([1.0, 0.0]), None, r"operator needs a square matrix, got shape \(2,\)"),
        (lambda: Operator([[1.0, 0.0]]), None, r"operator needs a square matrix, got shape \(1, 2\)"),
        (_with(timeline=identity_timeline(("t_i", "t_1", "t_2", "t_3", "t_4", "t_f"), 2)), SCHEMA,
         "pre/post dimension 3 differs from dim 2"),
        (_with(sum_rules=(SumRule(("D", "E", "F"), "nope"),)), UNKNOWN_STAGE,
         "sum rule at unknown stage 'nope'"),
        (_segment_twice, SCHEMA, "segment t_i->t_1 appears twice"),
        # Each segment passes the unitarity check; their composition does not.
        (lambda: Timeline(("a", "b", "c", "d"), (Operator(np.diag([1 + 4.9e-11, 1.0])),) * 3),
         NON_UNITARY_SEGMENT, "composed timeline evolution is not unitary"),
    ],
    ids=["ket-2d", "ket-empty", "operator-1d", "operator-not-square", "timeline-dim",
         "sum-rule-stage", "segment-twice", "composed-evolution"],
)
def test_each_rejection_carries_its_code_and_message(build, code, message):
    with pytest.raises(ContractError, match=message) as err:
        build()
    if code is None:
        assert not isinstance(err.value, ScenarioError)
    else:
        assert isinstance(err.value, ScenarioError) and err.value.code == code


def test_duplicate_stage_names_are_named_before_segments_are_keyed():
    d = to_dict(default_three_path())
    d["stages"] = ["t_i", "t_1", "t_i", "t_1", "t_4", "t_f"]
    for seg, (a, b) in zip(d["segments"], zip(d["stages"], d["stages"][1:])):
        seg["from"], seg["to"] = a, b
    with pytest.raises(ScenarioError, match="duplicate stage name 't_i'") as err:
        from_dict(d)
    assert err.value.code == SCHEMA


def test_the_no_click_pattern_name_is_not_a_site_label():
    # Text output names the pattern with no clicks "(none)"; a site of that
    # label would print its own one-site pattern the same way.
    d = to_dict(builtin("three-path-fig1"))
    d["sites"][3]["label"] = d["pointers"][1]["site"] = "(none)"
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == SCHEMA and "site label '(none)'" in str(err.value)
    # Only the exact name is reserved.
    d["sites"][3]["label"] = d["pointers"][1]["site"] = "O(none)"
    assert from_dict(d).pointers[1].site == "O(none)"
    for label in ("a" + scenario_module.PATTERN_SEP + "b", "a,b"):
        with pytest.raises(ScenarioError) as err:
            replace(builtin("three-path"), sites=(Site(label, "t_1", "ket", [1.0, 0.0, 0.0]),))
        assert err.value.code == SCHEMA and repr(label) in str(err.value)
    assert scenario_module.NO_CLICKS == "(none)"


# Names a text report cannot print as one plain line, and the empty name.
UNPRINTABLE_NAMES = {
    "newline": "t_f\npostselection probability: 1",
    "tab": "a\tb",
    "nul": "a\x00",
    "next-line": "a\x85",
    "zero-width-space": "a\u200bb",
    "empty": "",
}


@pytest.mark.parametrize("name", UNPRINTABLE_NAMES.values(), ids=UNPRINTABLE_NAMES.keys())
def test_unprintable_stage_names_and_site_labels_are_schema_errors(name):
    with pytest.raises(ScenarioError) as err:
        Timeline(("a", name), (identity(2),))
    assert err.value.code == SCHEMA and repr(name) in str(err.value)
    sc = default_three_path()
    with pytest.raises(ScenarioError) as err:
        replace(sc, sites=sc.sites + (Site(name, "t_1", "ket", [1.0, 0.0, 0.0]),))
    assert err.value.code == SCHEMA and repr(name) in str(err.value)
    # The same names in a file: the last stage (and the segment into it),
    # and the label of O, which no pointer or sum rule references.
    d = to_dict(sc)
    d["stages"][-1] = d["segments"][-1]["to"] = name
    e = to_dict(sc)
    e["sites"][3]["label"] = name
    for bad in (d, e):
        with pytest.raises(ScenarioError) as err:
            from_dict(bad)
        assert err.value.code == SCHEMA and repr(name) in str(err.value)


def test_scenario_dim_is_the_timelines_not_a_field():
    assert "dim" not in {f.name for f in fields(Scenario)}
    sc = default_three_path()
    with pytest.raises(TypeError):
        Scenario(dim=3, timeline=sc.timeline, prepost=sc.prepost, sites=sc.sites)
    for name, sc in _file_scenarios():
        assert sc.dim == sc.timeline.dim == sc.prepost.pre.dim == to_dict(sc)["dim"], name


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grid", ONE_POINT_GRIDS)
def test_a_packet_on_one_grid_point_is_refused(grid):
    d = to_dict(builtin("three-path-allweak"))
    for entry in d["pointers"]:
        entry.update(grid)
    with pytest.raises(ScenarioError) as err:
        from_dict(d)
    assert err.value.code == SCHEMA and "grid too coarse" in str(err.value)


# --- streaming file I/O -----------------------------------------------------
# A 0.7 MB timeline file of 59 segments, whose to_dict [re, im] lists take
# about 1 MB. save and the checksum hold one array's text at a time: at most
# one segment's matrix, under 2% of the text. A quarter of the text, or of
# to_dict's peak, is thus far above what either holds and far below the
# whole text or the lists.


@pytest.fixture(scope="module")
def big_timeline(tmp_path_factory):
    rng = np.random.default_rng(63)
    dim, n_stages = 12, 60
    state = Ket(random_state(rng, dim))
    sc = Scenario(
        timeline=Timeline(
            tuple(f"t{k}" for k in range(n_stages)),
            tuple(Operator(qr_unitary(rng, dim)) for _ in range(n_stages - 1)),
        ),
        prepost=PrePost(state, state),
        sites=(),
    )
    path = tmp_path_factory.mktemp("big") / "timeline.json"
    save(sc, path)
    return sc, path


def _traced(fn):
    """fn()'s result and the peak bytes it allocates above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_save_holds_no_copy_of_the_text(big_timeline, tmp_path):
    sc, path = big_timeline
    _, to_dict_peak = _traced(lambda: to_dict(sc))
    again = tmp_path / "again.json"
    _, peak = _traced(lambda: save(sc, again))
    assert again.read_bytes() == path.read_bytes()
    assert peak - to_dict_peak < path.stat().st_size / 4


def test_save_builds_no_pair_lists(big_timeline, tmp_path):
    # save writes each array from its floats; to_dict's [re, im] lists,
    # about 1 MB here, are never built.
    sc, _ = big_timeline
    _, to_dict_peak = _traced(lambda: to_dict(sc))
    _, peak = _traced(lambda: save(sc, tmp_path / "again.json"))
    assert peak < to_dict_peak / 4


def test_checksum_builds_no_pair_lists(big_timeline):
    # Like save, the checksum writes each array from its floats; to_dict's
    # [re, im] lists are never built.
    sc, _ = big_timeline
    _, to_dict_peak = _traced(lambda: to_dict(sc))
    fresh = replace(sc)  # a new object, so the checksum is not cached
    _, peak = _traced(lambda: fresh.checksum)
    assert peak < to_dict_peak / 4


def test_checksum_holds_no_copy_of_the_canonical_text(big_timeline):
    sc, _ = big_timeline
    canonical = json.dumps(to_dict(sc), sort_keys=True, separators=(",", ":"))
    _, to_dict_peak = _traced(lambda: to_dict(sc))
    fresh = replace(sc)  # a new object, so the checksum is not cached
    checksum, peak = _traced(lambda: fresh.checksum)
    assert checksum == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert peak - to_dict_peak < len(canonical) / 4


def test_load_drops_the_text_before_from_dict(big_timeline, monkeypatch):
    sc, path = big_timeline
    largest = []
    build = scenario_module.from_dict

    def from_dict_seeing_blocks(d):
        # The text is one block the size of the file; the parsed entries
        # are many small blocks.
        largest.append(max(trace.size for trace in tracemalloc.take_snapshot().traces))
        return build(d)

    monkeypatch.setattr(scenario_module, "from_dict", from_dict_seeing_blocks)
    loaded, _ = _traced(lambda: load(path))
    assert loaded.checksum == sc.checksum
    assert len(largest) == 1 and largest[0] < path.stat().st_size / 4
