"""Timelines, transition amplitudes, weak values, sum rules."""

from __future__ import annotations

import numpy as np
import pytest

from builders import (
    CHI,
    PSI,
    crossing_projector,
    path_projector,
    random_state,
    random_unitary,
    unit,
)
from wvlab.errors import SCHEMA, ContractError, DegeneratePostselectionError, ScenarioError
from wvlab.qcore import Ket, Operator, basis_ket, identity, projector_from_ket
from wvlab.twosv import (
    PrePost,
    Timeline,
    identity_timeline,
    sum_rule_check,
    sweep,
    transition_amplitude,
    weak_value,
)

STAGES = ("t_i", "t_1", "t_2", "t_3", "t_4", "t_f")


def _three_path():
    """The reference interferometer, assembled from primitives only."""
    tl = identity_timeline(STAGES, 3)
    pp = PrePost(Ket(PSI), Ket(CHI))
    return tl, pp


def test_timeline_validation():
    with pytest.raises(ContractError):
        Timeline(("a", "a"), (identity(2),))
    with pytest.raises(ContractError):
        Timeline(("a", "b"), ())
    with pytest.raises(ContractError):
        Timeline(("a", "b"), (Operator([[1.0, 1.0], [0.0, 1.0]]),))
    tl = identity_timeline(("a", "b"), 2)
    with pytest.raises(ContractError):
        tl.index("c")


def test_forward_and_backward_sweeps_pair_consistently():
    # <post(t)|pre(t)> must not depend on the stage t.
    rng = np.random.default_rng(5)
    stages = ("s0", "s1", "s2", "s3")
    tl = Timeline(stages, tuple(Operator(random_unitary(rng, 3)) for _ in range(3)))
    pre = Ket(random_state(rng, 3))
    post = Ket(random_state(rng, 3))
    sw = sweep(tl, PrePost(pre, post))
    pairings = [np.vdot(sw.backward[k], sw.forward[k]) for k in range(len(stages))]
    assert np.allclose(pairings, sw.amplitude)
    assert pairings[-1] == sw.amplitude


def test_transition_amplitude_reference_values():
    tl, pp = _three_path()
    eye = identity(3)
    for stage in STAGES:
        tau = transition_amplitude(tl, pp, eye, stage)
        assert np.isclose(tau, 1.0 / 3.0, atol=1e-12)
    # The crossing amplitudes cancel exactly.
    assert abs(transition_amplitude(tl, pp, crossing_projector(), "t_2")) <= 1e-12
    assert abs(transition_amplitude(tl, pp, crossing_projector(), "t_4")) <= 1e-12
    assert np.isclose(transition_amplitude(tl, pp, path_projector(0), "t_2"), 1.0 / 3.0, atol=1e-12)
    amp = transition_amplitude(tl, pp, path_projector(2), "t_1")
    assert np.isclose(amp, -1.0 / 3.0, atol=1e-12)


def test_transition_amplitude_requires_projector():
    tl, pp = _three_path()
    tilted = Operator(0.5 * np.eye(3))
    with pytest.raises(ContractError, match="expected a projector"):
        transition_amplitude(tl, pp, tilted, "t_1")


def test_transition_amplitude_is_linear_in_the_operator():
    rng = np.random.default_rng(13)
    stages = ("a", "b", "c")
    tl = Timeline(stages, tuple(Operator(random_unitary(rng, 4)) for _ in range(2)))
    pre = Ket(random_state(rng, 4))
    post = Ket(random_state(rng, 4))
    pp = PrePost(pre, post)
    pa = projector_from_ket(Ket(rng.normal(size=4) + 1j * rng.normal(size=4)))
    pb = projector_from_ket(Ket(rng.normal(size=4) + 1j * rng.normal(size=4)))
    alpha, beta = 0.7 - 0.2j, -1.1 + 0.4j
    combo = Operator(alpha * pa.matrix + beta * pb.matrix)
    sw = sweep(tl, pp)
    lhs = np.vdot(sw.backward[1], combo.matrix @ sw.forward[1])
    rhs = alpha * transition_amplitude(tl, pp, pa, "b") + beta * transition_amplitude(
        tl, pp, pb, "b"
    )
    assert abs(lhs - rhs) <= 1e-12


def test_rank1_transition_amplitude_factorizes():
    rng = np.random.default_rng(17)
    tl = Timeline(("a", "b", "c"), tuple(Operator(random_unitary(rng, 3)) for _ in range(2)))
    pre = Ket(random_state(rng, 3))
    post = Ket(random_state(rng, 3))
    pp = PrePost(pre, post)
    u = Ket(random_state(rng, 3))
    tau = transition_amplitude(tl, pp, projector_from_ket(u), "b")
    sw = sweep(tl, pp)
    factored = np.vdot(sw.backward[1], u.amps) * np.vdot(u.amps, sw.forward[1])
    assert abs(tau - factored) <= 1e-12


def test_weak_values_of_reference_sites():
    tl, pp = _three_path()
    expected = [
        (path_projector(1), "t_1", 1.0),
        (path_projector(2), "t_1", -1.0),
        (path_projector(0), "t_2", 1.0),
        (crossing_projector(), "t_2", 0.0),
        (path_projector(1), "t_3", 1.0),
        (path_projector(2), "t_3", -1.0),
        (crossing_projector(), "t_4", 0.0),
    ]
    for proj, stage, want in expected:
        res = weak_value(tl, pp, proj, stage)
        assert not res.degenerate
        assert abs(res.value - want) <= 1e-12
        assert np.isclose(res.denominator, 1.0 / 3.0, atol=1e-12)


def test_weak_value_of_identity_is_one():
    tl, pp = _three_path()
    res = weak_value(tl, pp, identity(3), "t_3")
    assert abs(res.value - 1.0) <= 1e-12


def test_degenerate_postselection_flagged():
    tl = identity_timeline(("a", "b"), 2)
    pp = PrePost(basis_ket(2, 0), basis_ket(2, 1))
    res = weak_value(tl, pp, projector_from_ket(basis_ket(2, 0)), "a")
    assert res.degenerate
    assert res.value is None
    assert abs(res.denominator) <= 1e-12


def test_null_weak_value_iff_null_transition_amplitude():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        tl = Timeline(("a", "b", "c"), tuple(Operator(random_unitary(rng, n)) for _ in range(2)))
        pre = Ket(random_state(rng, n))
        post = Ket(random_state(rng, n))
        pp = PrePost(pre, post)
        sw = sweep(tl, pp)
        if abs(sw.amplitude) <= 0.05:
            continue
        # One generic site and one engineered-null site.
        w = Ket(random_state(rng, n))
        back = sw.backward[1]
        v = w.amps - np.vdot(back, w.amps) / np.vdot(back, back) * back
        probes = [w]
        if np.linalg.norm(v) > 1e-6:
            probes.append(Ket(unit(v)))
        for u in probes:
            res = weak_value(tl, pp, projector_from_ket(u), "b")
            eps = 1e-9
            null_wv = abs(res.value) <= eps
            null_tau = abs(res.numerator) <= eps * abs(res.denominator)
            assert null_wv == null_tau


def test_inserting_identity_stage_changes_nothing():
    tl, pp = _three_path()
    stretched = identity_timeline(("t_i", "t_1", "t_2", "t_mid", "t_3", "t_4", "t_f"), 3)
    probes = [(path_projector(1), "t_1"), (crossing_projector(), "t_2"), (path_projector(2), "t_3")]
    for proj, stage in probes:
        a = weak_value(tl, pp, proj, stage).value
        b = weak_value(stretched, pp, proj, stage).value
        assert abs(a - b) <= 1e-12


def test_sum_rule_check():
    tl, pp = _three_path()
    complete = {"D": path_projector(0), "E": path_projector(1), "F": path_projector(2)}
    assert abs(sum_rule_check(tl, pp, complete, "t_1") - 1.0) <= 1e-12
    with pytest.raises(ContractError):
        sum_rule_check(tl, pp, {"E": path_projector(1), "F": path_projector(2)}, "t_1")
    degenerate = PrePost(basis_ket(3, 0), basis_ket(3, 1))
    with pytest.raises(DegeneratePostselectionError):
        sum_rule_check(tl, degenerate, complete, "t_1")


def test_sum_rule_check_rejects_mixed_dimensions_with_a_contract_error():
    tl = identity_timeline(("a", "b"), 2)
    pp = PrePost(basis_ket(2, 0), basis_ket(2, 0))
    with pytest.raises(ContractError, match="does not resolve the identity"):
        sum_rule_check(tl, pp, {"x": identity(2), "y": identity(3)}, "a")


def test_random_complete_sets_sum_to_one():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        tl = Timeline(("a", "b", "c"), tuple(Operator(random_unitary(rng, n)) for _ in range(2)))
        pre = Ket(random_state(rng, n))
        post = Ket(random_state(rng, n))
        pp = PrePost(pre, post)
        if abs(sweep(tl, pp).amplitude) <= 0.05:
            continue
        basis = random_unitary(rng, n)
        projs = {f"p{i}": projector_from_ket(Ket(basis[:, i])) for i in range(n)}
        assert abs(sum_rule_check(tl, pp, projs, "b") - 1.0) <= 1e-9


def test_weak_value_against_direct_formula():
    # Independent oracle: one raw matrix-product expression.
    rng = np.random.default_rng(37)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        u1 = random_unitary(rng, n)
        u2 = random_unitary(rng, n)
        tl = Timeline(("a", "b", "c"), (Operator(u1), Operator(u2)))
        pre = Ket(random_state(rng, n))
        post = Ket(random_state(rng, n))
        pp = PrePost(pre, post)
        uvec = Ket(random_state(rng, n))
        proj = projector_from_ket(uvec)
        den = post.amps.conj() @ (u2 @ u1) @ pre.amps
        if abs(den) <= 0.05:
            continue
        num = post.amps.conj() @ u2 @ proj.matrix @ u1 @ pre.amps
        res = weak_value(tl, pp, proj, "b")
        assert abs(res.value - num / den) <= 1e-12
        assert abs(res.numerator - num) <= 1e-12


def test_prepost_validation():
    with pytest.raises(ContractError):
        PrePost(Ket([1.0, 1.0]), basis_ket(2, 0))
    with pytest.raises(ScenarioError, match="pre dim 2 differs from post dim 3") as err:
        PrePost(basis_ket(2, 0), basis_ket(3, 0))
    assert err.value.code == SCHEMA
