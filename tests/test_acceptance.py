"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one [PASS]/[FAIL]
line per criterion.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from builders import random_state, random_unitary
from wvlab.cli import EXIT_OK, main
from wvlab.pointer import READY_CODE, PointerSpec, couple
from wvlab.qcore import Ket, Operator, projector_from_ket
from wvlab.runner import disturbance_table, run_pointers
from wvlab.scenario import builtin
from wvlab.twosv import PrePost, Timeline, sum_rule_check, transition_amplitude, weak_value

EXPECTED_WEAK_VALUES = {"E": 1.0, "F": -1.0, "D": 1.0, "O": 0.0, "E'": 1.0, "F'": -1.0, "O'": 0.0}


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    print(f"[PASS] criterion {num}: {name}")


def test_criterion_1_weak_value_reproduction(tmp_path):
    out = tmp_path / "wv.json"
    with criterion(1, "weak-values table is (1,-1,1,0,1,-1,0) within 1e-10, under 1 s"):
        start = time.perf_counter()
        code = main(
            ["weak-values", "--scenario", "builtin:three-path",
             "--format", "json", "--out", str(out)]
        )
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK
        payload = json.loads(out.read_text(encoding="utf-8"))
        table = {row["site"]: complex(*row["value"]) for row in payload["weak_values"]["table"]}
        assert set(table) == set(EXPECTED_WEAK_VALUES)
        for site, wv in EXPECTED_WEAK_VALUES.items():
            assert abs(table[site] - wv) <= 1e-10
        assert elapsed < 1.0


def _fig1_oracle():
    """Dense brute force for the two-strong-pointer run, no wvlab imports.

    System (dim 3) tensor two qubit registers; a strong coupling is a
    controlled bit flip on its register, conditioned on the projector.
    """
    s3 = 1.0 / np.sqrt(3.0)
    pre = np.array([s3, s3, s3], dtype=complex)
    post = np.array([s3, s3, -s3], dtype=complex)
    p_d = np.diag([1.0, 0.0, 0.0]).astype(complex)
    u = np.array([0.0, 1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    p_o = np.outer(u, u.conj())
    eye2, eye3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def kron3(a, b, c):
        return np.kron(np.kron(a, b), c)

    u_d = kron3(p_d, flip, eye2) + kron3(eye3 - p_d, eye2, eye2)
    u_o = kron3(p_o, eye2, flip) + kron3(eye3 - p_o, eye2, eye2)
    ready = np.array([1.0, 0.0], dtype=complex)
    state = u_o @ u_d @ kron3(pre.reshape(3, 1), ready.reshape(2, 1), ready.reshape(2, 1)).ravel()
    branches = post.conj() @ state.reshape(3, 4)
    prob = float(np.sum(np.abs(branches) ** 2))
    cond = np.abs(branches) ** 2 / prob
    p_click_d = float(cond[2] + cond[3])
    p_click_o = float(cond[1] + cond[3])
    return prob, p_click_d, p_click_o


def test_criterion_2_fig1_strong_run():
    with criterion(2, "strong D,O run: P(D)=1, P(O)=0, prob 1/9, oracle-matched"):
        rep = run_pointers(builtin("three-path-fig1"))
        assert abs(rep.clicks["D"] - 1.0) <= 1e-10
        assert abs(rep.clicks["O"]) <= 1e-10
        assert abs(rep.postselection_probability - 1.0 / 9.0) <= 1e-10
        prob, p_d, p_o = _fig1_oracle()
        assert abs(prob - 1.0 / 9.0) <= 1e-12
        assert abs(rep.postselection_probability - prob) <= 1e-12
        assert abs(rep.clicks["D"] - p_d) <= 1e-12
        assert abs(rep.clicks["O"] - p_o) <= 1e-12


def test_criterion_3_oprime_invariance():
    with criterion(3, "strong O' pointer changes no reported probability (1e-12)"):
        base = run_pointers(builtin("three-path-fig1"))
        ext = run_pointers(builtin("three-path-fig1-oprime"))
        assert abs(ext.clicks["O'"]) <= 1e-12
        assert abs(base.postselection_probability - ext.postselection_probability) <= 1e-12
        for site in base.clicks:
            assert abs(base.clicks[site] - ext.clicks[site]) <= 1e-12
        marginal = {}
        for pattern, p in ext.patterns.items():
            reduced = tuple(s for s in pattern if s != "O'")
            marginal[reduced] = marginal.get(reduced, 0.0) + p
        for pattern in set(base.patterns) | set(marginal):
            assert abs(base.patterns.get(pattern, 0.0) - marginal.get(pattern, 0.0)) <= 1e-12


def test_criterion_4_fig2_disturbance():
    with criterion(4, "patterns exactly {D},{O,E'},{O,F'} at 1/3 each; O disturbed"):
        rep = run_pointers(builtin("three-path-fig2"))
        assert set(rep.patterns) == {("D",), ("O", "E'"), ("O", "F'")}
        for p in rep.patterns.values():
            assert abs(p - 1.0 / 3.0) <= 1e-10
        table = disturbance_table(builtin("three-path-fig2"))
        flags = {row.site: row.disturbed for row in table.disturbance}
        assert flags["O"] is True


def test_criterion_5_weak_pointer_law():
    with criterion(5, "weak means within 1e-4*sigma of g*Re(wv); halving g helps 3x"):
        sc = builtin("three-path-allweak")
        sigma = sc.pointers[0].sigma
        g = sigma / 100.0
        noise = 1e-12 * sigma
        residuals = {}
        for gv in (g, g / 2.0):
            rep = run_pointers(sc.with_overrides(g=gv))
            for row in rep.weak_values:
                m = rep.weak_stats[row.site].mean
                residuals.setdefault(row.site, []).append(abs(m - gv * row.value.real))
        rep = run_pointers(sc)
        assert abs(rep.weak_stats["O"].mean) <= 1e-4 * sigma
        assert abs(rep.weak_stats["O'"].mean) <= 1e-4 * sigma
        assert rep.weak_stats["F"].mean < 0 and rep.weak_stats["F'"].mean < 0
        for site, (r_full, r_half) in residuals.items():
            assert r_full <= 1e-4 * sigma, site
            assert r_half <= 1e-4 * sigma, site
            if r_full <= noise and r_half <= noise:
                continue  # exactly-cancelling site, both residuals at float noise
            assert r_half <= r_full / 3.0, site


def test_criterion_6_property_suite():
    with criterion(6, "500 random scenarios: sum rule, null equivalence, norms, oracle"):
        rng = np.random.default_rng(20260815)
        start = time.perf_counter()
        for _ in range(500):
            dim = int(rng.integers(2, 6))
            stages = ("t_i", "t_1", "t_2", "t_f")
            mats = [random_unitary(rng, dim) for _ in stages[:-1]]
            tl = Timeline(stages, tuple(Operator(m) for m in mats))
            pre = random_state(rng, dim)
            u_total = mats[2] @ mats[1] @ mats[0]
            post = random_state(rng, dim)
            while abs(np.vdot(post, u_total @ pre)) <= 0.05:
                post = random_state(rng, dim)
            pp = PrePost(Ket(pre), Ket(post))
            k = int(rng.integers(0, len(stages)))
            stage = stages[k]
            u_before = np.eye(dim, dtype=complex)
            for m in mats[:k]:
                u_before = m @ u_before
            u_after = np.eye(dim, dtype=complex)
            for m in mats[k:]:
                u_after = m @ u_after

            # Complete orthogonal set: weak values sum to 1.
            basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
            projs = {
                f"b{j}": projector_from_ket(Ket(basis[:, j])) for j in range(dim)
            }
            total = sum_rule_check(tl, pp, projs, stage)
            assert abs(total - 1.0) <= 1e-9

            # Generic rank-1 site: engine equals the raw matrix-product formula.
            v = random_state(rng, dim)
            proj = projector_from_ket(Ket(v))
            res = weak_value(tl, pp, proj, stage)
            den = np.vdot(post, u_total @ pre)
            num = np.vdot(post, u_after @ proj.matrix @ (u_before @ pre))
            assert abs(res.numerator - num) <= 1e-12
            assert abs(res.value - num / den) <= 1e-12
            assert (abs(res.numerator) <= 1e-12) == (
                abs(res.value) <= 1e-12 / abs(res.denominator)
            )

            # Engineered null site: vanishing amplitude and vanishing weak value.
            back = u_after.conj().T @ post
            w = random_state(rng, dim)
            w_null = w - back * np.vdot(back, w)
            if np.linalg.norm(w_null) > 1e-6:
                null_proj = projector_from_ket(Ket(w_null))
                ta = transition_amplitude(tl, pp, null_proj, stage)
                null_res = weak_value(tl, pp, null_proj, stage)
                assert abs(ta) <= 1e-12
                assert abs(null_res.value) <= 1e-10

            # Couplings preserve the joint norm.
            strong = PointerSpec(site="S", kind="strong")
            branches, codes = couple(Ket(pre).amps[:, None], READY_CODE, proj.matrix, 2, strong)
            assert abs(np.linalg.norm(branches) - 1.0) <= 1e-12
            weak = PointerSpec(site="W", kind="weak")
            w_proj = projector_from_ket(Ket(w)).matrix
            branches, codes = couple(branches, codes, w_proj, 1, weak)
            assert abs(np.linalg.norm(branches) - 1.0) <= 1e-12
        assert time.perf_counter() - start < 30.0
