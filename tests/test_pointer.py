"""Pointer registers, couplings, postselection, readout.

The weak-register math is cross-checked against a brute-force oracle
that keeps every register on its full position grid, so the compact
representation used by the package must agree to machine precision.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from wvlab.errors import SCHEMA, ContractError, ScenarioError
from wvlab.pointer import (
    CompositeState,
    PointerSpec,
    click_readout,
    couple_strong,
    couple_weak,
    initial_state,
    pattern_amplitudes,
    postselect,
)
from wvlab.qcore import (
    MAX_POINTER_REGISTERS,
    PATTERN_FLOOR,
    Ket,
    Operator,
    basis_ket,
    identity,
    projector_from_ket,
)
from wvlab.runner import disturbance_rows, run_pointers
from wvlab.scenario import (
    Scenario,
    default_three_path,
    from_dict,
    site_from_ket,
    site_from_matrix,
    three_path_rank2_crossing,
)
from wvlab.twosv import PrePost, Timeline, transition_amplitude

S3 = 1.0 / np.sqrt(3.0)
PSI = np.array([S3, S3, S3])
CHI = np.array([S3, S3, -S3])


def _proj(index):
    return projector_from_ket(basis_ket(3, index))


def _crossing():
    return projector_from_ket(Ket([0.0, 1.0, 1.0]))


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


# --- brute-force oracle on full grids --------------------------------------


def _grid_waves(spec):
    q = np.linspace(-spec.grid_extent * spec.sigma, spec.grid_extent * spec.sigma, spec.grid_size)
    g0 = np.exp(-(q**2) / (4.0 * spec.sigma**2))
    g0 = g0 / np.linalg.norm(g0)
    g1 = np.exp(-((q - spec.g) ** 2) / (4.0 * spec.sigma**2))
    g1 = g1 / np.linalg.norm(g1)
    return q, g0, g1


class DenseSim:
    """Full-grid tensor simulation; registers indexed by position."""

    def __init__(self, psi, specs):
        self.specs = list(specs)
        self.waves = [None if s.kind == "strong" else _grid_waves(s) for s in specs]
        t = np.asarray(psi, dtype=complex)
        for k, s in enumerate(specs):
            vec = np.array([1.0, 0.0]) if s.kind == "strong" else self.waves[k][1]
            t = np.multiply.outer(t, vec)
        self.t = t

    def couple(self, proj, k):
        ax = 1 + k
        hit = np.tensordot(proj.matrix, self.t, axes=(1, 0))
        miss = self.t - hit
        if self.specs[k].kind == "strong":
            ready_vec, moved_vec = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        else:
            _, ready_vec, moved_vec = self.waves[k]
        # Register k is untouched so far, so the hit branch factors as
        # (rest) x ready_vec along this axis; swap that factor out.
        rest = np.tensordot(hit, ready_vec.conj(), axes=(ax, 0))
        self.t = np.moveaxis(np.multiply.outer(rest, moved_vec), -1, ax) + miss

    def postselect(self, chi):
        self.t = np.tensordot(np.asarray(chi).conj(), self.t, axes=(0, 0))
        prob = float(np.linalg.norm(self.t) ** 2)
        if prob > 0:
            self.t = self.t / np.sqrt(prob)
        return prob

    def strong_prob(self, k):
        p = np.abs(self.t) ** 2
        return float(np.take(p, 1, axis=k).sum())

    def weak_marginal(self, k):
        p = np.abs(self.t) ** 2
        axes = tuple(i for i in range(p.ndim) if i != k)
        return p.sum(axis=axes)

    def weak_mean_var(self, k):
        q = self.waves[k][0]
        marg = self.weak_marginal(k)
        mean = float(np.dot(q, marg))
        var = float(np.dot(q**2, marg)) - mean**2
        return mean, var


# --- specs and registers ----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(site="", kind="strong"),
        dict(site="X", kind="medium"),
        dict(site="X", kind="weak", sigma=0.0),
        dict(site="X", kind="weak", sigma=-1.0),
        dict(site="X", kind="weak", grid_size=200),
        dict(site="X", kind="weak", grid_size=1),
        dict(site="X", kind="weak", grid_extent=0.0),
        dict(site="X", kind="weak", g=1.0),  # overlap exp(-1/8) <= 0.9
        dict(site="X", kind="weak", g=np.nan),
    ],
)
def test_pointer_spec_rejections(kwargs):
    with pytest.raises(ContractError):
        PointerSpec(**kwargs)


def test_strong_register_states_are_orthogonal():
    spec = PointerSpec(site="D", kind="strong")
    ready = np.array([1.0, 0.0])
    assert np.array_equal(spec.moved_coeffs, [0.0, 1.0])
    assert np.dot(ready, spec.moved_coeffs) == 0.0


def test_weak_register_waves():
    spec = PointerSpec(site="O", kind="weak", g=0.01)
    q, g0, g1 = _grid_waves(spec)
    ready, moved = spec.basis[0], spec.moved_coeffs @ spec.basis
    assert abs(np.linalg.norm(ready) - 1.0) <= 1e-8
    assert np.max(np.abs(ready - g0)) <= 1e-15
    assert np.max(np.abs(moved - g1)) <= 1e-12
    # Overlap follows the Gaussian law up to grid truncation.
    analytic = np.exp(-(spec.g**2) / (8.0 * spec.sigma**2))
    assert abs(float(np.dot(g0, g1)) - analytic) <= 1e-8
    assert abs(np.dot(spec.moved_coeffs, spec.moved_coeffs) - 1.0) <= 1e-12
    # Ready packet is centered.
    assert abs(spec.pos_op[0, 0]) <= 1e-12
    assert spec.mass_loss <= 1e-6


def test_weak_register_with_zero_g_stays_two_dimensional():
    spec = PointerSpec(site="O", kind="weak", g=0.0)
    assert np.allclose(spec.moved_coeffs, [1.0, 0.0])
    gram = spec.basis @ spec.basis.T
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12


def test_translation_off_the_grid_is_rejected():
    # The spec itself refuses a grid the kick would leave, so no
    # register is ever built from it.
    with pytest.raises(ScenarioError) as info:
        PointerSpec(site="O", kind="weak", g=0.9, grid_extent=2.0)
    assert info.value.code == SCHEMA
    assert "probability mass" in str(info.value)


# --- composite states and couplings -----------------------------------------


def _fresh(pointers):
    return initial_state(Ket(PSI), pointers)


def test_initial_state_shape_and_labels():
    state = _fresh([PointerSpec(site="D", kind="strong"), PointerSpec(site="O", kind="weak")])
    assert state.shape == (3, 2, 2)
    assert np.isclose(state.norm(), 1.0)
    # Flat index 4 * path + 2 * D + O: the system amplitudes sit where
    # every register is ready.
    flat = state.tensor_view().reshape(-1)
    assert np.array_equal(flat[[0, 4, 8]], PSI)
    assert np.count_nonzero(flat) == 3


def test_couple_strong_zero_and_identity_projectors():
    zero = Operator(np.zeros((3, 3)))
    state = _fresh([PointerSpec(site="D", kind="strong")])
    same = couple_strong(state, zero, "D")
    assert np.array_equal(same.tensor_view(), state.tensor_view())
    full = couple_strong(state, identity(3), "D")
    t = full.tensor_view()
    assert np.allclose(t[:, 1], PSI)
    assert np.allclose(t[:, 0], 0.0)


def test_register_consumed_after_coupling():
    state = _fresh([PointerSpec(site="D", kind="strong")])
    once = couple_strong(state, _proj(0), "D")
    with pytest.raises(ContractError):
        couple_strong(once, _proj(0), "D")


def test_couple_kind_must_match_register():
    state = _fresh([PointerSpec(site="D", kind="strong")])
    with pytest.raises(ContractError):
        couple_weak(state, _proj(0), "D")


def test_couple_requires_projector_and_matching_dim():
    state = _fresh([PointerSpec(site="D", kind="strong")])
    with pytest.raises(ContractError):
        couple_strong(state, Operator(0.5 * np.eye(3)), "D")
    from wvlab.errors import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        couple_strong(state, identity(2), "D")


def test_couplings_preserve_norm():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        sys = Ket(rng.normal(size=n) + 1j * rng.normal(size=n)).normalized()
        specs = [
            PointerSpec(site="s", kind="strong"),
            PointerSpec(site="w", kind="weak", g=0.05, grid_size=61),
        ]
        state = initial_state(sys, specs)
        u = Ket(rng.normal(size=n) + 1j * rng.normal(size=n)).normalized()
        v = Ket(rng.normal(size=n) + 1j * rng.normal(size=n)).normalized()
        state = couple_strong(state, projector_from_ket(u), "s")
        state = couple_weak(state, projector_from_ket(v), "w")
        assert abs(state.norm() - 1.0) <= 1e-12


def test_same_stage_orthogonal_strong_couplings_commute():
    specs = [PointerSpec(site="D", kind="strong"), PointerSpec(site="O", kind="strong")]
    a = couple_strong(couple_strong(_fresh(specs), _proj(0), "D"), _crossing(), "O")
    b = couple_strong(couple_strong(_fresh(specs), _crossing(), "O"), _proj(0), "D")
    assert np.max(np.abs(a.tensor_view() - b.tensor_view())) <= 1e-14


def test_postselect_bare_state():
    state = _fresh([])
    res = postselect(state, Ket(CHI))
    assert np.isclose(res.probability, 1.0 / 9.0, atol=1e-12)
    assert not res.degenerate
    assert np.isclose(res.conditional.norm(), 1.0)
    orth = postselect(state, Ket([0.0, 1.0 / np.sqrt(2), -1.0 / np.sqrt(2)]))
    assert orth.degenerate
    assert orth.conditional is None
    assert orth.probability <= 1e-20


def test_coupling_after_postselection_rejected():
    state = _fresh([PointerSpec(site="D", kind="strong")])
    res = postselect(state, Ket(CHI))
    with pytest.raises(ContractError):
        couple_strong(res.conditional, _proj(0), "D")


def _run_fig1():
    specs = [PointerSpec(site="D", kind="strong"), PointerSpec(site="O", kind="strong")]
    state = _fresh(specs)
    state = couple_strong(state, _proj(0), "D")
    state = couple_strong(state, _crossing(), "O")
    return postselect(state, Ket(CHI))


def test_two_strong_pointers_give_certain_detector_click():
    res = _run_fig1()
    assert np.isclose(res.probability, 1.0 / 9.0, atol=1e-12)
    # Conditional pointer state is exactly |shifted> x |ready>.
    t = res.conditional.tensor_view()
    assert abs(abs(t[1, 0]) - 1.0) <= 1e-12
    stats = click_readout(res.conditional)
    assert abs(stats.strong["D"] - 1.0) <= 1e-12
    assert abs(stats.strong["O"]) <= 1e-12
    assert abs(stats.patterns[("D",)] - 1.0) <= 1e-12


def test_four_strong_pointers_split_into_three_patterns():
    specs = [PointerSpec(site=s, kind="strong") for s in ("D", "O", "E'", "F'")]
    state = _fresh(specs)
    state = couple_strong(state, _proj(0), "D")
    state = couple_strong(state, _crossing(), "O")
    state = couple_strong(state, _proj(1), "E'")
    state = couple_strong(state, _proj(2), "F'")
    res = postselect(state, Ket(CHI))
    assert np.isclose(res.probability, 1.0 / 3.0, atol=1e-12)
    stats = click_readout(res.conditional)
    third = 1.0 / 3.0
    nonzero = {p: v for p, v in stats.patterns.items() if v > 1e-12}
    assert set(nonzero) == {("D",), ("O", "E'"), ("O", "F'")}
    for v in nonzero.values():
        assert abs(v - third) <= 1e-12
    amps = pattern_amplitudes(res.unnormalized)
    assert abs(amps[("D",)] - third) <= 1e-12
    assert abs(amps[("O", "E'")] - third) <= 1e-12
    assert abs(amps[("O", "F'")] + third) <= 1e-12


def test_click_readout_contracts():
    state = _fresh([])
    with pytest.raises(ContractError):
        click_readout(state)  # system still present
    res = postselect(state, Ket(CHI))
    with pytest.raises(ContractError):
        click_readout(res.unnormalized)


def test_composite_state_validation():
    with pytest.raises(ContractError):
        initial_state(
            Ket(PSI), [PointerSpec(site="X", kind="strong"), PointerSpec(site="X", kind="weak")]
        )


# --- weak registers against the dense oracle --------------------------------


def _package_run(psi, chi, couplings, specs):
    state = initial_state(Ket(psi), specs)
    kinds = {spec.site: spec.kind for spec in specs}
    for proj, site in couplings:
        if kinds[site] == "strong":
            state = couple_strong(state, proj, site)
        else:
            state = couple_weak(state, proj, site)
    res = postselect(state, Ket(chi))
    return res, click_readout(res.conditional) if not res.degenerate else None


def _dense_run(psi, chi, couplings, specs):
    sim = DenseSim(psi, specs)
    index = {s.site: k for k, s in enumerate(specs)}
    for proj, site in couplings:
        sim.couple(proj, index[site])
    prob = sim.postselect(chi)
    return sim, prob


@pytest.mark.parametrize(
    "specs,couplings",
    [
        (
            [PointerSpec(site="F", kind="weak", g=0.01)],
            [("p2", "F")],
        ),
        (
            [PointerSpec(site="O", kind="weak", g=0.01)],
            [("cross", "O")],
        ),
        (
            [
                PointerSpec(site="D", kind="weak", g=0.02, grid_size=121),
                PointerSpec(site="O", kind="weak", g=0.01, grid_size=121),
            ],
            [("p0", "D"), ("cross", "O")],
        ),
        (
            [
                PointerSpec(site="D", kind="strong"),
                PointerSpec(site="O", kind="weak", g=0.01, grid_size=121),
            ],
            [("p0", "D"), ("cross", "O")],
        ),
    ],
)
def test_compact_representation_matches_dense_oracle(specs, couplings):
    projs = {"p0": _proj(0), "p2": _proj(2), "cross": _crossing()}
    couplings = [(projs[name], site) for name, site in couplings]
    res, stats = _package_run(PSI, CHI, couplings, specs)
    sim, prob = _dense_run(PSI, CHI, couplings, specs)
    assert abs(res.probability - prob) <= 1e-13
    for k, spec in enumerate(specs):
        if spec.kind == "strong":
            assert abs(stats.strong[spec.site] - sim.strong_prob(k)) <= 1e-13
            continue
        mean, var = sim.weak_mean_var(k)
        st = stats.weak[spec.site]
        assert abs(st.mean - mean) <= 1e-12
        assert abs(st.variance - var) <= 1e-12
        assert np.max(np.abs(st.probabilities - sim.weak_marginal(k))) <= 1e-12
        assert abs(st.probabilities.sum() - 1.0) <= 1e-12


def test_weak_pointer_mean_tracks_weak_value():
    g = 0.01
    res, stats = _package_run(
        PSI, CHI, [(_proj(2), "F")], [PointerSpec(site="F", kind="weak", g=g)]
    )
    # Weak value at F is -1; conditional mean shifts to about -g.
    assert abs(stats.weak["F"].mean - (-g)) <= 1e-4
    res, stats = _package_run(
        PSI, CHI, [(_crossing(), "O")], [PointerSpec(site="O", kind="weak", g=g)]
    )
    # Vanishing amplitude: the packet does not move at all.
    assert abs(stats.weak["O"].mean) <= 1e-12


def test_weak_coupling_with_identity_projector_shifts_fully():
    g = 0.05
    spec = PointerSpec(site="w", kind="weak", g=g)
    res, stats = _package_run(PSI, CHI, [(identity(3), "w")], [spec])
    sim, prob = _dense_run(PSI, CHI, [(identity(3), "w")], [spec])
    mean, _ = sim.weak_mean_var(0)
    assert abs(stats.weak["w"].mean - mean) <= 1e-12
    assert abs(stats.weak["w"].mean - g) <= 1e-6


def test_weak_coupling_with_zero_g_is_identity():
    state = _fresh([PointerSpec(site="O", kind="weak", g=0.0)])
    out = couple_weak(state, _crossing(), "O")
    assert np.max(np.abs(out.tensor_view() - state.tensor_view())) <= 1e-15


# --- growing composite and floored readout -----------------------------------


def _pairs(vec):
    return [[float(z.real), float(z.imag)] for z in np.ravel(vec)]


def _random_scenario(rng, n_ptr):
    """Random timeline with n_ptr pointers (some weak) on rank-1 sites.

    Two extra sites are orthogonal to the evolved pre state at their
    stage, so their amplitude vanishes and they get disturbance rows.
    """
    dim = int(rng.integers(2, 6))
    stages = [f"t{k}" for k in range(int(rng.integers(2, 5)))]
    mats = [_random_unitary(rng, dim) for _ in stages[1:]]
    pre = Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim)).normalized().amps
    post = Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim)).normalized().amps
    forward = [pre]
    for u in mats:
        forward.append(u @ forward[-1])
    sites = []
    for k in range(n_ptr + 2):
        s = int(rng.integers(len(stages)))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if k >= n_ptr:
            psi = forward[s]
            v = v - np.vdot(psi, v) * psi
        sites.append({"label": f"s{k}", "stage": stages[s], "kind": "ket", "data": _pairs(v)})
    return _assemble(dim, stages, mats, pre, post, sites, _random_pointers(rng, n_ptr))


def _random_pointers(rng, n_ptr):
    """n_ptr pointers on n_ptr of the sites s0 to s{n_ptr}, up to two of them weak."""
    n_weak = int(rng.integers(0, min(2, n_ptr) + 1))
    weak = set(rng.choice(n_ptr, size=n_weak, replace=False).tolist())
    pointers = []
    for k in rng.permutation(n_ptr + 1)[:n_ptr].tolist():
        if k in weak:
            g = float(rng.uniform(0.05, 0.5))
            pointers.append({"site": f"s{k}", "kind": "weak", "g": g, "grid_size": 31})
        else:
            pointers.append({"site": f"s{k}", "kind": "strong"})
    return pointers


def _assemble(dim, stages, mats, pre, post, sites, pointers):
    """Validated scenario from its parts, through the file format."""
    return from_dict({
        "dim": dim,
        "stages": stages,
        "segments": [
            {"from": a, "to": b, "matrix": _pairs(u)} for a, b, u in zip(stages, stages[1:], mats)
        ],
        "pre": _pairs(pre),
        "post": _pairs(post),
        "sites": sites,
        "pointers": pointers,
    })


def _sparse_interferometer(rng, n_ptr):
    """Path projectors behind identity and permutation segments.

    Some paths start empty and the segments only move paths around, so
    most branches are exactly zero and get dropped. Sites s0 to
    s{n_ptr-1} sit on random paths; the two extra sites sit on paths empty at their
    stage, so their amplitude vanishes and they get disturbance rows.
    """
    dim = int(rng.integers(3, 6))
    stages = [f"t{k}" for k in range(int(rng.integers(2, 6)))]
    eye = np.eye(dim)
    mats = [eye[rng.permutation(dim)] if rng.random() < 0.7 else eye for _ in stages[1:]]
    pre = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    pre[rng.choice(dim, size=int(rng.integers(1, dim)), replace=False)] = 0.0
    pre = pre / np.linalg.norm(pre)
    post = Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim)).normalized().amps
    forward = [pre]
    for u in mats:
        forward.append(u @ forward[-1])
    sites = []
    for k in range(n_ptr + 2):
        s = int(rng.integers(len(stages)))
        paths = np.flatnonzero(forward[s] == 0) if k >= n_ptr else np.arange(dim)
        v = eye[int(rng.choice(paths))]
        sites.append({"label": f"s{k}", "stage": stages[s], "kind": "ket", "data": _pairs(v)})
    return _assemble(dim, stages, mats, pre, post, sites, _random_pointers(rng, n_ptr))


def _dense_pipeline(sc, insert=None):
    """The scenario's pointer run on full grids, postselected, unnormalized."""
    sim = DenseSim(sc.prepost.pre.amps, sc.pointers)
    for k, stage in enumerate(sc.timeline.stages):
        if k > 0:
            sim.t = np.tensordot(sc.timeline.segments[k - 1].matrix, sim.t, axes=(1, 0))
        if insert is not None and insert.stage == stage:
            sim.t = np.tensordot(insert.projector.matrix, sim.t, axes=(1, 0))
        for j, ps in enumerate(sc.pointers):
            site = sc.site(ps.site)
            if site.stage == stage:
                sim.couple(site.projector, j)
    sim.t = np.tensordot(sc.prepost.post.amps.conj(), sim.t, axes=(0, 0))
    return sim


def _strong_branches(sim, sc):
    """Per strong pattern: the oracle's branch (a vector over the weak grids)."""
    strong = [k for k, ps in enumerate(sc.pointers) if ps.kind == "strong"]
    weak = [k for k, ps in enumerate(sc.pointers) if ps.kind == "weak"]
    arranged = np.transpose(sim.t, strong + weak)
    out = {}
    for combo in np.ndindex((2,) * len(strong)):
        pattern = tuple(sc.pointers[strong[j]].site for j, bit in enumerate(combo) if bit)
        out[pattern] = arranged[combo]
    return out, bool(weak)


@pytest.mark.parametrize(
    "make,seed",
    [pytest.param(_random_scenario, seed, id=str(seed)) for seed in range(12)]
    + [pytest.param(_sparse_interferometer, seed, id=f"sparse-{seed}") for seed in range(8)],
)
def test_run_pointers_matches_dense_oracle_on_random_scenarios(make, seed):
    rng = np.random.default_rng(1000 + seed)
    sc = make(rng, int(rng.integers(1, 11)))
    rep = run_pointers(sc)
    sim = _dense_pipeline(sc)
    prob = float(np.linalg.norm(sim.t) ** 2)
    assert abs(rep.postselection_probability - prob) <= 1e-12
    sim.t = sim.t / np.sqrt(prob)
    branches, _ = _strong_branches(sim, sc)
    joint = {pat: float(np.sum(np.abs(b) ** 2)) for pat, b in branches.items()}
    assert set(rep.patterns) == {pat for pat, v in joint.items() if v > PATTERN_FLOOR}
    for pat, v in rep.patterns.items():
        assert abs(v - joint[pat]) <= 1e-12
    for k, ps in enumerate(sc.pointers):
        if ps.kind == "strong":
            assert abs(rep.clicks[ps.site] - sim.strong_prob(k)) <= 1e-12
            continue
        st = rep.weak_stats[ps.site]
        mean, var = sim.weak_mean_var(k)
        assert abs(st.mean - mean) <= 1e-12
        assert abs(st.variance - var) <= 1e-12
        assert np.max(np.abs(st.probabilities - sim.weak_marginal(k))) <= 1e-12

    rows = disturbance_rows(sc)
    assert {row.site for row in rows} >= {f"s{len(sc.pointers)}", f"s{len(sc.pointers) + 1}"}
    for row in rows:
        want, has_weak = _strong_branches(_dense_pipeline(sc, insert=sc.site(row.site)), sc)
        for pat, branch in want.items():
            amp = np.linalg.norm(branch) if has_weak else complex(branch)
            if abs(amp) > sc.tolerance:
                assert abs(row.branches[pat] - amp) <= 1e-12
            else:
                assert pat not in row.branches


def _dephased_probability(sc, clicked=None):
    """<post|rho|post> with every strong pointer traced out as a dephasing channel.

    Each coupling maps rho to P rho P + Q rho Q, Q = 1 - P; at the
    pointer of site clicked only the click branch P rho P is kept.
    """
    rho = np.outer(sc.prepost.pre.amps, sc.prepost.pre.amps.conj())
    for k, stage in enumerate(sc.timeline.stages):
        if k > 0:
            u = sc.timeline.segments[k - 1].matrix
            rho = u @ rho @ u.conj().T
        for ps in sc.pointers:
            site = sc.site(ps.site)
            if site.stage == stage:
                p = site.projector.matrix
                q = np.eye(sc.dim) - p
                rho = p @ rho @ p if ps.site == clicked else p @ rho @ p + q @ rho @ q
    post = sc.prepost.post.amps
    return float(np.real(np.vdot(post, rho @ post)))


def test_twenty_strong_pointers_on_a_sparse_interferometer_match_the_dephasing_channel():
    # The full composite would hold 4 * 2**20 amplitudes; a few branches live.
    rng = np.random.default_rng(20)
    dim, n_ptr = 4, 20
    stages = [f"t{k}" for k in range(7)]
    eye = np.eye(dim)
    mats = [eye[rng.permutation(dim)] if rng.random() < 0.7 else eye for _ in stages[1:]]
    # One 50:50 beam splitter mid-way, so the detectors decohere paths
    # that later interfere.
    pair = rng.choice(dim, size=2, replace=False)
    mats[2] = eye.copy()
    mats[2][np.ix_(pair, pair)] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    slots = [(stage, path) for stage in stages[1:-1] for path in range(dim)]
    sites = [
        {"label": f"k{stage}p{path}", "stage": stage, "kind": "ket", "data": _pairs(eye[path])}
        for stage, path in slots
    ]
    assert len(sites) == n_ptr
    pre, post = (
        Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim)).normalized().amps for _ in range(2)
    )
    pointers = [{"site": site["label"], "kind": "strong"} for site in rng.permutation(sites)]
    sc = _assemble(dim, stages, mats, pre, post, sites, pointers)
    rep = run_pointers(sc)
    prob = _dephased_probability(sc)
    assert abs(rep.postselection_probability - prob) <= 1e-12
    assert len(rep.clicks) == n_ptr
    for ps in sc.pointers:
        assert abs(rep.clicks[ps.site] - _dephased_probability(sc, ps.site) / prob) <= 1e-12
    assert abs(sum(rep.patterns.values()) - 1.0) <= 1e-12


def _mixed_state(rng, dim, kinds):
    specs = [
        PointerSpec(site=f"r{k}", kind=kind, g=0.2, grid_size=31) for k, kind in enumerate(kinds)
    ]
    psi = Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim)).normalized()
    state = initial_state(psi, specs)
    for spec in specs:
        v = Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        couple = couple_strong if spec.kind == "strong" else couple_weak
        state = couple(state, projector_from_ket(v), spec.site)
    return state


def test_pattern_keys_come_in_ndindex_order():
    rng = np.random.default_rng(5)
    kinds = ("strong", "weak", "strong", "strong", "weak", "strong", "strong")
    state = _mixed_state(rng, 3, kinds)
    res = postselect(state, Ket(rng.normal(size=3) + 0j).normalized())
    strong = [f"r{k}" for k, kind in enumerate(kinds) if kind == "strong"]
    order = [
        tuple(site for site, bit in zip(strong, combo) if bit)
        for combo in np.ndindex((2,) * len(strong))
    ]
    assert list(pattern_amplitudes(res.unnormalized)) == order
    stats = click_readout(res.conditional)
    assert len(stats.patterns) > 1
    assert list(stats.patterns) == [p for p in order if p in stats.patterns]


def test_live_branches_grow_at_most_twofold_per_coupling():
    specs = [PointerSpec(site=s, kind="strong") for s in ("D", "O", "E'", "F'")]
    state = _fresh(specs)
    assert state.branches.shape == (3, 1) and state.codes.tolist() == [0]
    sim = DenseSim(PSI, specs)
    couplings = [(_proj(0), "D"), (_crossing(), "O"), (_proj(1), "E'"), (_proj(2), "F'")]
    # Out of 2, 4, 8 and 16 branches, the rest are exactly zero.
    for k, ((proj, site), live) in enumerate(zip(couplings, (2, 3, 5, 5))):
        state = couple_strong(state, proj, site)
        sim.couple(proj, k)
        assert state.branches.shape == (3, live) and state.codes.shape == (live,)
        assert state.codes.dtype == np.int64 and len(set(state.codes.tolist())) == live
        assert not state.branches.flags.writeable and not state.codes.flags.writeable
        assert np.all(state.branches.any(axis=0))
        assert state.shape == (3, 2, 2, 2, 2)
        assert np.max(np.abs(state.tensor_view() - sim.t)) <= 1e-15
        dropped = np.setdiff1d(np.arange(16), state.codes)
        assert not np.any(sim.t.reshape(3, 16)[:, dropped])
    res = postselect(state, Ket(CHI))
    assert res.unnormalized.branches.shape == (5,)
    assert np.array_equal(res.unnormalized.codes, state.codes)
    regs = state.registers
    for system_dim, branches, codes in [
        (3, state.branches[:1], state.codes),
        (3, state.branches, state.codes[:-1]),
        (3, state.branches, state.codes[:, None]),
        (None, state.branches, state.codes),
        (None, res.unnormalized.branches[:-1], state.codes),
    ]:
        with pytest.raises(ContractError):
            CompositeState(system_dim=system_dim, registers=regs, branches=branches, codes=codes)


def test_partially_coupled_state_keeps_the_full_layout():
    specs = [PointerSpec(site=s, kind="strong") for s in ("D", "O", "E'", "F'")]
    state = couple_strong(couple_strong(_fresh(specs), _crossing(), "O"), _proj(2), "F'")
    # Only the bits of O (0b0100) and F' (0b0001) are ever set.
    assert sorted(state.codes.tolist()) == [0b0000, 0b0001, 0b0100, 0b0101]
    assert state.branches.shape == (3, 4)
    sim = DenseSim(PSI, specs)
    sim.couple(_crossing(), 1)
    sim.couple(_proj(2), 3)
    assert state.tensor_view().shape == (3, 2, 2, 2, 2)
    assert np.max(np.abs(state.tensor_view() - sim.t)) <= 1e-15
    # Uncoupled registers are still ready: their shifted halves are zero.
    t = state.tensor_view()
    assert not np.any(t[:, 1]) and not np.any(t[:, :, :, 1])
    res = postselect(state, Ket(CHI))
    assert res.conditional.tensor_view().shape == (2, 2, 2, 2)
    stats = click_readout(res.conditional)
    assert stats.strong["D"] == 0.0 and stats.strong["E'"] == 0.0


def test_composite_state_copies_only_writable_input():
    state = couple_strong(_fresh([PointerSpec(site="D", kind="strong")]), _proj(0), "D")
    again = replace(state, coupled=frozenset())
    assert again.branches is state.branches and again.codes is state.codes
    writable = np.array(state.branches)
    copied = replace(state, branches=writable)
    assert copied.branches is not writable and not copied.branches.flags.writeable
    writable[:] = 0.0
    assert np.array_equal(copied.branches, state.branches)


def test_composite_holds_at_most_max_pointer_registers():
    specs = [PointerSpec(site=f"r{k}", kind="strong") for k in range(MAX_POINTER_REGISTERS + 1)]
    state = initial_state(Ket(PSI), specs[:-1])
    assert state.shape == (3,) + (2,) * MAX_POINTER_REGISTERS
    with pytest.raises(ContractError, match="27 pointer registers exceed the limit of 26"):
        initial_state(Ket(PSI), specs)


def _with_path_detectors(sc, n):
    """sc plus n strong detectors on path projectors, cycling over stages, then paths."""
    stages = sc.timeline.stages
    sites = tuple(
        site_from_ket(f"x{k}", stages[k % len(stages)], basis_ket(sc.dim, k // len(stages) % sc.dim))
        for k in range(n)
    )
    pointers = tuple(PointerSpec(site=site.label, kind="strong") for site in sites)
    return replace(sc, sites=sc.sites + sites, pointers=pointers)


def test_forty_pointer_scenario_is_refused_by_run_pointers():
    sc = _with_path_detectors(default_three_path(), 40)
    for run in (run_pointers, disturbance_rows):  # O and O' are null sites
        with pytest.raises(ContractError, match="40 pointer registers exceed the limit of 26"):
            run(sc)


def test_click_patterns_hold_only_values_above_the_floor():
    # A projector almost orthogonal to the system leaves a click at A
    # with probability about 1e-14; the zero projector at C leaves every
    # pattern with C exactly zero. Neither kind is reported.
    specs = [PointerSpec(site="A", kind="strong"), PointerSpec(site="C", kind="strong")]
    specs.append(PointerSpec(site="W", kind="weak", g=0.2, grid_size=31))
    state = initial_state(Ket([0.0, 1.0]), specs)
    state = couple_strong(state, projector_from_ket(Ket([1.0, 1e-7])), "A")
    state = couple_strong(state, Operator(np.zeros((2, 2))), "C")
    state = couple_weak(state, identity(2), "W")
    res = postselect(state, Ket([1.0, 1.0]).normalized())
    joint = (np.abs(res.conditional.tensor_view()) ** 2).sum(axis=-1)
    assert 0.0 < joint[1, 0] < PATTERN_FLOOR
    stats = click_readout(res.conditional)
    assert list(stats.patterns) == [()]
    assert abs(stats.patterns[()] - 1.0) <= 1e-12
    assert 0.0 < stats.strong["A"] < PATTERN_FLOOR
    fig2 = _fresh([PointerSpec(site=s, kind="strong") for s in ("D", "O", "E'", "F'")])
    for proj, site in [(_proj(0), "D"), (_crossing(), "O"), (_proj(1), "E'"), (_proj(2), "F'")]:
        fig2 = couple_strong(fig2, proj, site)
    four = postselect(fig2, Ket(CHI))
    assert set(click_readout(four.conditional).patterns) == {("D",), ("O", "E'"), ("O", "F'")}


# --- the paper's claim: a lone strong detector -------------------------------


def _lone_detector_scenario(rng):
    """Random timeline (d 2-6, 2-10 stages) with rank-1 and rank-2 sites.

    Half the sites are null by construction: their subspace is
    orthogonal to the evolved pre state, or to the post state dragged
    back, at their stage.
    """
    dim = int(rng.integers(2, 7))
    stages = tuple(f"t{k}" for k in range(int(rng.integers(2, 11))))
    mats = [_random_unitary(rng, dim) for _ in stages[1:]]
    pre, post = (
        Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim)).normalized().amps for _ in range(2)
    )
    forward, backward = [pre], [post]
    for u, u_back in zip(mats, reversed(mats)):
        forward.append(u @ forward[-1])
        backward.insert(0, u_back.conj().T @ backward[0])
    sites = []
    for rank, null in ((1, False), (1, True), (2, False), (2, True)):
        if rank == 2 and null and dim < 3:
            continue
        s = int(rng.integers(len(stages)))
        cols = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        if null:
            psi = (forward if rng.random() < 0.5 else backward)[s]
            cols = cols - np.outer(psi, psi.conj() @ cols)
        label, stage = f"s{len(sites)}", stages[s]
        if rank == 1:
            sites.append(site_from_ket(label, stage, Ket(cols[:, 0])))
        else:
            q = np.linalg.qr(cols)[0]
            sites.append(site_from_matrix(label, stage, Operator(q @ q.conj().T)))
    return Scenario(
        dim=dim,
        timeline=Timeline(stages, tuple(Operator(u) for u in mats)),
        prepost=PrePost(Ket(pre), Ket(post)),
        sites=tuple(sites),
    )


def _check_lone_detector(sc, site) -> bool:
    """One strong pointer at site: clicks at |tau|^2 / (|tau|^2 + |miss|^2).

    tau is the site's transition amplitude and miss the amplitude
    through 1 - P at the same stage, so the detector is silent exactly
    where the weak value is null. Returns whether the site is null.
    """
    rep = run_pointers(replace(sc, pointers=(PointerSpec(site=site.label, kind="strong"),)))
    tl, pp = sc.timeline, sc.prepost
    tau = transition_amplitude(tl, pp, site.projector, site.stage)
    rest = Operator(np.eye(sc.dim) - site.projector.matrix)
    miss = transition_amplitude(tl, pp, rest, site.stage)
    den = abs(tau) ** 2 + abs(miss) ** 2
    assert not rep.degenerate
    assert abs(rep.postselection_probability - den) <= 1e-12
    assert abs(rep.clicks[site.label] - abs(tau) ** 2 / den) <= 1e-12
    null = abs(tau) <= sc.tolerance
    if null:
        assert all(site.label not in pattern for pattern in rep.patterns)
    return null


def test_lone_strong_detector_is_silent_exactly_where_the_weak_value_is_null():
    nulls = 0
    for sc in (default_three_path(), three_path_rank2_crossing()):
        nulls += sum(_check_lone_detector(sc, site) for site in sc.sites)
    assert nulls == 4  # O and O' in both crossing models
    rng = np.random.default_rng(20261018)
    for _ in range(100):
        sc = _lone_detector_scenario(rng)
        nulls += sum(_check_lone_detector(sc, site) for site in sc.sites)
    assert nulls >= 150
