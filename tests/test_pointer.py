"""Pointer registers, couplings, the postselected readout block, readout.

The weak-register math is cross-checked against a brute-force oracle
that keeps every register on its full position grid, so the compact
representation used by the package must agree to machine precision.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from builders import (
    CHI,
    PSI,
    assemble,
    composite,
    crossing_projector,
    dense_strong,
    pairs,
    path_projector,
    random_state,
    random_unitary,
    unit,
    weak_on_empty_path,
    with_path_detectors,
)
from wvlab import cli, runner
from wvlab.errors import SCHEMA, ContractError, ScenarioError
from wvlab.pointer import (
    READY_CODE,
    PointerSpec,
    _pattern_names,
    click_readout,
    couple,
    pattern_amplitudes,
    register_bits,
    strong_block,
)
from wvlab.qcore import (
    MAX_LIVE_AMPLITUDES,
    MAX_POINTER_REGISTERS,
    PATTERN_FLOOR,
    Ket,
    Operator,
    identity,
    projector_from_ket,
)
from wvlab.runner import disturbance_table, run_pointers
from wvlab.scenario import (
    Scenario,
    Site,
    builtin,
    default_three_path,
    from_dict,
    three_path_rank2_crossing,
    to_dict,
)
from wvlab.twosv import PrePost, Timeline, sweep, transition_amplitude


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma", [1e-50, 1.0, 1e50])
def test_three_points_at_five_sigma_resolve_a_packet_at_any_scale(sigma):
    # The one-grid-point refusal is relative, so no scale is refused for it.
    spec = PointerSpec(site="O", kind="weak", g=0.0, sigma=sigma, grid_size=3, grid_extent=5.0)
    gram = spec.basis @ spec.basis.T
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12


def test_translation_off_the_grid_is_rejected():
    # The spec itself refuses a grid the kick would leave, so no
    # register is ever built from it.
    with pytest.raises(ScenarioError) as info:
        PointerSpec(site="O", kind="weak", g=0.9, grid_extent=2.0)
    assert info.value.code == SCHEMA
    assert "probability mass" in str(info.value)


# --- live branches and couplings ---------------------------------------------


def _ready():
    """PSI as the one live branch of a run whose registers are all ready."""
    return Ket(PSI).amps[:, None], READY_CODE


def _couple_all(psi, specs, couplings):
    """Live branches and codes after each (projector, site) coupling, in order."""
    bits = register_bits(specs)
    by_site = {spec.site: spec for spec in specs}
    branches, codes = Ket(psi).amps[:, None], READY_CODE
    for proj, site in couplings:
        branches, codes = couple(branches, codes, proj.matrix, bits[site], by_site[site])
    return branches, codes


def _layout(branches, codes, specs):
    """A fresh scatter of live branches into the full (2,) * n register layout.

    The layout's axes are the registers in declaration order, as
    DenseSim holds them; each code is mapped from register_bits' bits.
    """
    n = len(specs)
    bits = register_bits(specs)
    index = np.zeros(len(codes), dtype=np.int64)
    for k, spec in enumerate(specs):
        index |= ((codes & bits[spec.site]) != 0).astype(np.int64) << (n - 1 - k)
    head = branches.shape[:-1]
    t = np.zeros(head + (2**n,), dtype=complex)
    t[..., index] = branches
    return t.reshape(head + (2,) * n)


def _n_weak(specs):
    return sum(spec.kind == "weak" for spec in specs)


def _postselected(branches, codes, chi, specs):
    """Live strong codes and unnormalized block, as runner._simulate leaves them."""
    return strong_block(np.asarray(chi).conj() @ branches, codes, specs)


def _block_layout(strong, block, specs):
    """A fresh scatter of the block into the full layout (see _layout)."""
    codes = (strong[:, None] << _n_weak(specs)) | np.arange(block.shape[1])
    return _layout(block.reshape(-1), codes.reshape(-1), specs)


def _package_run(psi, chi, couplings, specs):
    """Probability, normalized layout and readout, as run_pointers reads them."""
    strong, block = _postselected(*_couple_all(psi, specs, couplings), chi, specs)
    prob = float(np.linalg.norm(block) ** 2)
    block /= np.sqrt(prob)
    return prob, _block_layout(strong, block, specs), click_readout(strong, block, specs)


def _split(branches, codes, proj, bit, moved):
    """The miss/hit split with the kicked register at moved, zero columns dropped."""
    hit = proj @ branches
    miss = branches - hit
    new = np.concatenate([miss + hit * moved[0], hit * moved[1]], axis=1)
    codes = np.concatenate([codes, codes | bit])
    live = new.any(axis=0)
    return new[:, live], codes[live]


def test_couple_is_the_miss_hit_split_at_the_registers_moved_coeffs():
    strong = PointerSpec(site="D", kind="strong")
    ready, code = _ready()
    same, codes = couple(ready, code, np.zeros((3, 3)), 1, strong)
    # The hit branch is exactly zero and dropped.
    assert np.array_equal(same, ready) and codes.tolist() == [0]
    full, codes = couple(ready, code, identity(3).matrix, 1, strong)
    assert codes.tolist() == [1]
    t = _layout(full, codes, _strong_specs(("D",)))
    assert np.allclose(t[:, 1], PSI)
    assert np.allclose(t[:, 0], 0.0)

    # A strong register skips the product by its moved_coeffs (0, 1); the
    # result must be the very bytes the product gives, codes included.
    rng = np.random.default_rng(53)
    weak = PointerSpec(site="w", kind="weak", g=0.3)
    assert strong.moved_coeffs.tolist() == [0.0, 1.0]
    for _ in range(50):
        d, b = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        branches = rng.normal(size=(d, b)) + 1j * rng.normal(size=(d, b))
        branches[:, rng.random(b) < 0.3] = 0.0
        codes = rng.choice(1 << 10, size=b, replace=False).astype(np.int64) << 1
        ket = Ket(rng.normal(size=d) + 1j * rng.normal(size=d))
        for proj in (np.zeros((d, d)), np.eye(d), projector_from_ket(ket).matrix):
            for spec in (strong, weak):
                got = couple(branches, codes, proj, 1, spec)
                want = _split(branches, codes, proj, 1, spec.moved_coeffs)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
                assert got[1].dtype == np.int64
                assert not got[0].flags.writeable and not got[1].flags.writeable


def test_couplings_preserve_norm():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        sys = Ket(random_state(rng, n))
        specs = [
            PointerSpec(site="s", kind="strong"),
            PointerSpec(site="w", kind="weak", g=0.05, grid_size=61),
        ]
        u = Ket(random_state(rng, n))
        v = Ket(random_state(rng, n))
        couplings = [(projector_from_ket(u), "s"), (projector_from_ket(v), "w")]
        branches, _ = _couple_all(sys.amps, specs, couplings)
        assert abs(np.linalg.norm(branches) - 1.0) <= 1e-12


def test_same_stage_orthogonal_strong_couplings_commute():
    specs = [PointerSpec(site="D", kind="strong"), PointerSpec(site="O", kind="strong")]
    d, o = (path_projector(0), "D"), (crossing_projector(), "O")
    a = _layout(*_couple_all(PSI, specs, [d, o]), specs)
    b = _layout(*_couple_all(PSI, specs, [o, d]), specs)
    assert np.max(np.abs(a - b)) <= 1e-14


def test_postselect_bare_state():
    strong, block = _postselected(*_ready(), CHI, [])
    assert strong.tolist() == [0] and block.shape == (1, 1)
    assert np.isclose(np.linalg.norm(block) ** 2, 1.0 / 9.0, atol=1e-12)
    assert np.isclose(block[0, 0], np.vdot(CHI, PSI))
    _, orth = _postselected(*_ready(), [0.0, 1.0 / np.sqrt(2), -1.0 / np.sqrt(2)], [])
    assert np.linalg.norm(orth) ** 2 <= 1e-20


_FIG2 = [(path_projector(0), "D"), (crossing_projector(), "O"),
         (path_projector(1), "E'"), (path_projector(2), "F'")]


def _strong_specs(sites):
    return [PointerSpec(site=s, kind="strong") for s in sites]


def test_two_strong_pointers_give_certain_detector_click():
    prob, t, stats = _package_run(PSI, CHI, _FIG2[:2], _strong_specs(("D", "O")))
    assert np.isclose(prob, 1.0 / 9.0, atol=1e-12)
    # Conditional pointer state is exactly |shifted> x |ready>.
    assert abs(abs(t[1, 0]) - 1.0) <= 1e-12
    assert abs(stats["clicks"]["D"] - 1.0) <= 1e-12
    assert abs(stats["clicks"]["O"]) <= 1e-12
    assert abs(stats["patterns"][("D",)] - 1.0) <= 1e-12


def test_four_strong_pointers_split_into_three_patterns():
    specs = _strong_specs(("D", "O", "E'", "F'"))
    prob, _, stats = _package_run(PSI, CHI, _FIG2, specs)
    assert np.isclose(prob, 1.0 / 3.0, atol=1e-12)
    third = 1.0 / 3.0
    nonzero = {p: v for p, v in stats["patterns"].items() if v > 1e-12}
    assert set(nonzero) == {("D",), ("O", "E'"), ("O", "F'")}
    for v in nonzero.values():
        assert abs(v - third) <= 1e-12
    amps = pattern_amplitudes(*_postselected(*_couple_all(PSI, specs, _FIG2), CHI, specs), specs)
    assert abs(amps[("D",)] - third) <= 1e-12
    assert abs(amps[("O", "E'")] - third) <= 1e-12
    assert abs(amps[("O", "F'")] + third) <= 1e-12


@pytest.mark.parametrize(
    "kinds", [("strong",) * 4, ("strong", "weak", "strong"), ("weak", "weak")]
)
def test_readout_layout_is_a_fresh_scatter_of_the_conditional_branches(kinds):
    # The block holds one fresh, writable row per live strong code, in
    # code order, and readout divides it in place; its bytes must equal
    # a scatter of the normalized branches.
    rng = np.random.default_rng(7)
    specs, branches, codes = _mixed_state(rng, 4, kinds)
    chi = random_state(rng, 4)
    amps = chi.conj() @ branches
    strong, block = _postselected(branches, codes, chi, specs)
    n_weak = _n_weak(specs)
    assert strong.tolist() == sorted(set((codes >> n_weak).tolist()))
    assert block.shape == (len(strong), 2**n_weak) and block.flags.writeable
    prob = float(np.linalg.norm(block) ** 2)
    assert abs(prob - np.linalg.norm(amps) ** 2) <= 1e-15
    block /= np.sqrt(prob)
    fresh = _layout(amps / np.sqrt(prob), codes, specs)
    assert np.array_equal(_block_layout(strong, block, specs), fresh)


# --- weak registers against the dense oracle --------------------------------


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
    projs = {"p0": path_projector(0), "p2": path_projector(2), "cross": crossing_projector()}
    couplings = [(projs[name], site) for name, site in couplings]
    prob_run, _, stats = _package_run(PSI, CHI, couplings, specs)
    sim, prob = _dense_run(PSI, CHI, couplings, specs)
    assert abs(prob_run - prob) <= 1e-13
    for k, spec in enumerate(specs):
        if spec.kind == "strong":
            assert abs(stats["clicks"][spec.site] - sim.strong_prob(k)) <= 1e-13
            continue
        mean, var = sim.weak_mean_var(k)
        st = stats["weak_stats"][spec.site]
        assert abs(st.mean - mean) <= 1e-12
        assert abs(st.variance - var) <= 1e-12
        assert np.max(np.abs(st.probabilities - sim.weak_marginal(k))) <= 1e-12
        assert abs(st.probabilities.sum() - 1.0) <= 1e-12


def test_weak_pointer_mean_tracks_weak_value():
    g = 0.01
    _, _, stats = _package_run(
        PSI, CHI, [(path_projector(2), "F")], [PointerSpec(site="F", kind="weak", g=g)]
    )
    # Weak value at F is -1; conditional mean shifts to about -g.
    assert abs(stats["weak_stats"]["F"].mean - (-g)) <= 1e-4
    _, _, stats = _package_run(
        PSI, CHI, [(crossing_projector(), "O")], [PointerSpec(site="O", kind="weak", g=g)]
    )
    # Vanishing amplitude: the packet does not move at all.
    assert abs(stats["weak_stats"]["O"].mean) <= 1e-12


def test_weak_coupling_with_identity_projector_shifts_fully():
    g = 0.05
    spec = PointerSpec(site="w", kind="weak", g=g)
    _, _, stats = _package_run(PSI, CHI, [(identity(3), "w")], [spec])
    sim, prob = _dense_run(PSI, CHI, [(identity(3), "w")], [spec])
    mean, _ = sim.weak_mean_var(0)
    assert abs(stats["weak_stats"]["w"].mean - mean) <= 1e-12
    assert abs(stats["weak_stats"]["w"].mean - g) <= 1e-6


def test_weak_coupling_with_zero_g_is_identity():
    spec = PointerSpec(site="O", kind="weak", g=0.0)
    out = _couple_all(PSI, [spec], [(crossing_projector(), "O")])
    assert np.max(np.abs(_layout(*out, [spec]) - _layout(*_ready(), [spec]))) <= 1e-15


# --- growing composite and floored readout -----------------------------------


def _random_scenario(rng, n_ptr):
    """Random timeline with n_ptr pointers (some weak) on rank-1 sites.

    Two extra sites are orthogonal to the evolved pre state at their
    stage, so their amplitude vanishes and they get disturbance rows.
    """
    dim = int(rng.integers(2, 6))
    stages = [f"t{k}" for k in range(int(rng.integers(2, 5)))]
    mats = [random_unitary(rng, dim) for _ in stages[1:]]
    pre = random_state(rng, dim)
    post = random_state(rng, dim)
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
        sites.append({"label": f"s{k}", "stage": stages[s], "kind": "ket", "data": pairs(v)})
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


def _assemble(*parts):
    """Validated scenario from its parts, through the file format."""
    return from_dict(assemble(*parts))


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
    post = random_state(rng, dim)
    forward = [pre]
    for u in mats:
        forward.append(u @ forward[-1])
    sites = []
    for k in range(n_ptr + 2):
        s = int(rng.integers(len(stages)))
        paths = np.flatnonzero(forward[s] == 0) if k >= n_ptr else np.arange(dim)
        v = eye[int(rng.choice(paths))]
        sites.append({"label": f"s{k}", "stage": stages[s], "kind": "ket", "data": pairs(v)})
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

    rows = disturbance_table(sc).disturbance
    assert {row.site for row in rows} >= {f"s{len(sc.pointers)}", f"s{len(sc.pointers) + 1}"}
    for row in rows:
        want, has_weak = _strong_branches(_dense_pipeline(sc, insert=sc.site(row.site)), sc)
        for pat, branch in want.items():
            amp = np.linalg.norm(branch) if has_weak else complex(branch)
            if abs(amp) > sc.tolerance:
                assert abs(row.branches[pat] - amp) <= 1e-12
            else:
                assert pat not in row.branches


def _channel_probability(sc, clicked=None, insert=None):
    """<post|rho|post> with every register traced out as its two-Kraus channel.

    A register with (h0, h1) = moved_coeffs maps rho to the sum over b
    of K_b rho K_b^+, K_0 = Q + h0 P and K_1 = h1 P, Q = 1 - P: the
    density-matrix form of Silva et al., PRA 89, 012121 (2014). A strong
    register's (0, 1) dephases, rho -> P rho P + Q rho Q. At the pointer
    of site clicked only K_1 acts. The projector of the site insert acts
    right before the couplings at its stage, as in a disturbance row.
    """
    kraus = {}
    for ps in sc.pointers:
        site = sc.site(ps.site)
        p = site.projector.matrix
        h0, h1 = ps.moved_coeffs
        ops = [h1 * p] if ps.site == clicked else [np.eye(sc.dim) - p + h0 * p, h1 * p]
        kraus.setdefault(site.stage, []).append(ops)
    if insert is not None:
        kraus.setdefault(insert.stage, []).insert(0, [insert.projector.matrix])
    rho = np.outer(sc.prepost.pre.amps, sc.prepost.pre.amps.conj())
    for k, stage in enumerate(sc.timeline.stages):
        if k > 0:
            u = sc.timeline.segments[k - 1].matrix
            rho = u @ rho @ u.conj().T
        for ops in kraus.get(stage, ()):
            rho = sum(op @ rho @ op.conj().T for op in ops)
    post = sc.prepost.post.amps
    return float(np.real(np.vdot(post, rho @ post)))


@pytest.mark.parametrize("n_ptr", [20, 48, 63])
def test_twenty_strong_pointers_on_a_sparse_interferometer_match_the_dephasing_channel(n_ptr):
    # The full composite would hold 4 * 2**n_ptr amplitudes; a few branches live.
    rng = np.random.default_rng(n_ptr)
    dim = 4
    stages = [f"t{k}" for k in range(-(-n_ptr // dim) + 2)]
    eye = np.eye(dim)
    mats = [eye[rng.permutation(dim)] if rng.random() < 0.7 else eye for _ in stages[1:]]
    # One 50:50 beam splitter mid-way, so the detectors decohere paths
    # that later interfere.
    pair = rng.choice(dim, size=2, replace=False)
    mats[2] = eye.copy()
    mats[2][np.ix_(pair, pair)] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    slots = [(stage, path) for stage in stages[1:-1] for path in range(dim)]
    sites = [
        {"label": f"k{stage}p{path}", "stage": stage, "kind": "ket", "data": pairs(eye[path])}
        for stage, path in slots[:n_ptr]
    ]
    pre, post = (
        random_state(rng, dim) for _ in range(2)
    )
    pointers = [{"site": site["label"], "kind": "strong"} for site in rng.permutation(sites)]
    sc = _assemble(dim, stages, mats, pre, post, sites, pointers)
    rep = run_pointers(sc)
    prob = _channel_probability(sc)
    assert abs(rep.postselection_probability - prob) <= 1e-12
    assert len(rep.clicks) == n_ptr
    for ps in sc.pointers:
        assert abs(rep.clicks[ps.site] - _channel_probability(sc, ps.site) / prob) <= 1e-12
        marginal = sum(v for pattern, v in rep.patterns.items() if ps.site in pattern)
        assert abs(rep.clicks[ps.site] - marginal) <= 1e-12
    assert abs(sum(rep.patterns.values()) - 1.0) <= 1e-12


def test_a_north_star_composite_matches_the_two_kraus_channel():
    # S = 200 stages, d = 16, 40 strong and 8 weak pointers and 4 null
    # sites: every scale axis at once. Rows come from the null sites
    # and from the pointer sites that the mixers leave without amplitude.
    sc = from_dict(composite(1, 200, 16, 40, 8, 4))
    rep = run_pointers(sc)
    prob = _channel_probability(sc)
    assert abs(rep.postselection_probability - prob) <= 1e-12
    strong = [ps.site for ps in sc.pointers if ps.kind == "strong"]
    assert len(strong) == 40 and list(rep.clicks) == strong
    for site in strong:
        assert abs(rep.clicks[site] - _channel_probability(sc, site) / prob) <= 1e-12
    rows = disturbance_table(sc).disturbance
    assert {"n0", "n1", "n2", "n3"} < {row.site for row in rows}
    for row in rows:
        weight = sum(abs(amp) ** 2 for amp in row.branches.values())
        assert abs(weight - _channel_probability(sc, insert=sc.site(row.site))) <= 1e-12
    # Thirty weak registers make the block 2**30 columns wide.
    too_wide = from_dict(composite(1, 200, 16, 20, 30, 0))
    message = "the readout block would hold 16106127360 amplitudes, over the limit of 67108864"
    with pytest.raises(ContractError) as refused:
        run_pointers(too_wide)
    assert str(refused.value) == message


FORBIDDEN = ("three-path-fig1", "three-path-fig1-oprime", "three-path-fig2")


def _forbidden(name):
    """The built-in's file with post = (1, 1, -2)/sqrt6, which is orthogonal to pre."""
    d = to_dict(builtin(name))
    s6 = 1.0 / np.sqrt(6.0)
    d["post"] = pairs([s6, s6, -2.0 * s6])
    return d


@pytest.mark.parametrize(
    "name, prob, clicks",
    [
        ("three-path-fig1", 1 / 9, {"D": 1 / 2, "O": 1 / 2}),
        ("three-path-fig1-oprime", 1 / 9, {"D": 1 / 2, "O": 1 / 2, "O'": 1 / 2}),
        ("three-path-fig2", 1 / 3, {"D": 1 / 6, "O": 5 / 6, "E'": 1 / 6, "F'": 2 / 3}),
    ],
)
def test_strong_pointers_make_a_forbidden_postselection_possible(name, prob, clicks, tmp_path, capsys):
    # post = (1, 1, -2)/sqrt6 is orthogonal to pre, and the bare amplitude
    # <post|U|pre> vanishes, so no weak value is defined. The strong
    # pointers' back-action breaks that cancellation: a run is postselected
    # with the probability of the two-Kraus channel.
    d = _forbidden(name)
    sc = from_dict(d)
    path = tmp_path / "forbidden.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    for command in ("weak-values", "disturbance"):
        assert cli.main([command, "--scenario", str(path), "--format", "json"]) == cli.EXIT_DEGENERATE
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["degenerate"] is True
        assert [row["value"] for row in payload["weak_values"]["table"]] == [None] * len(sc.sites)
    assert cli.main(["run", "--scenario", str(path), "--format", "json"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"]["degenerate"] is False
    got = payload["postselection_probability"]
    assert abs(got - _channel_probability(sc)) <= 1e-12 and abs(got - prob) <= 1e-12
    assert list(payload["clicks"]) == list(clicks)
    for site, p in payload["clicks"].items():
        assert abs(p - _channel_probability(sc, site) / got) <= 1e-12
        assert abs(p - clicks[site]) <= 1e-12
    # The text says which number is which: the weak values describe the
    # undisturbed experiment, the probability the pointer run.
    note = ("weak values undefined: <post|U|pre> vanishes; "
            "pointer statistics are conditioned on the pointer run")
    assert cli.main(["run", "--scenario", str(path)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].startswith("postselection probability: ") and lines[4] == note
    assert cli.main(["weak-values", "--scenario", str(path)]) == cli.EXIT_DEGENERATE
    assert note not in capsys.readouterr().out


def _all_strong(sc):
    return replace(sc, pointers=tuple(PointerSpec(ps.site, "strong") for ps in sc.pointers))


def test_strong_pattern_amplitudes_sum_to_the_bare_amplitude():
    # Law 3. A strong coupling splits a branch into P|b> and Q|b>, which
    # sum back to |b>, so with strong registers only the pattern
    # amplitudes sum to <post|U|pre>. By Cauchy-Schwarz, |<post|U|pre>|
    # is then at most sqrt(patterns * probability): a run can be
    # degenerate only where the bare amplitude is small. On the forbidden
    # files the sum is 0 while the run's probability is 1/9 or 1/3.
    rng = np.random.default_rng(3)
    scenarios = [from_dict(dense_strong(8))] + [from_dict(_forbidden(name)) for name in FORBIDDEN]
    scenarios += [_all_strong(_sparse_interferometer(rng, int(rng.integers(1, 11)))) for _ in range(30)]
    scenarios += [_all_strong(_random_scenario(rng, int(rng.integers(1, 11)))) for _ in range(30)]
    for sc in scenarios:
        strong, block, _ = runner._simulate(sc)
        amps = pattern_amplitudes(strong, block, sc.pointers)
        bare = sweep(sc.timeline, sc.prepost).amplitude
        assert abs(sum(amps.values()) - bare) <= 1e-12
        assert abs(bare) <= np.sqrt(len(amps)) * np.linalg.norm(block) + 1e-12


def test_a_pass_evolves_only_the_stages_between_its_first_and_last_step(monkeypatch):
    # Pointers couple at stages 12 to 27 of 40 and a null site sits at
    # stage 5. The sweep holds the states outside a pass, so a run applies
    # 27 - 12 segments and the null site's row 27 - 5 segments plus its
    # projector, not all 39.
    rng = np.random.default_rng(26)
    dim, eye = 4, np.eye(4)
    stages = [f"t{k}" for k in range(40)]
    mats = [random_unitary(rng, dim) for _ in stages[1:]]
    pre, post = random_state(rng, dim), random_state(rng, dim)
    psi = pre
    for u in mats[:5]:
        psi = u @ psi
    v = random_state(rng, dim)
    sites = [{"label": "null", "stage": "t5", "kind": "ket", "data": pairs(v - np.vdot(psi, v) * psi)}]
    sites += [
        {"label": f"s{k}", "stage": f"t{s}", "kind": "ket", "data": pairs(eye[k])}
        for k, s in enumerate((12, 20, 20, 27))
    ]
    pointers = [{"site": f"s{k}", "kind": "strong"} for k in range(3)]
    pointers.append({"site": "s3", "kind": "weak", "g": 0.3, "grid_size": 31})
    sc = _assemble(dim, stages, mats, pre, post, sites, pointers)
    applied = []
    act = runner.act
    monkeypatch.setattr(runner, "act", lambda m, b: applied.append(m) or act(m, b))
    rep = run_pointers(sc)
    assert len(applied) == 27 - 12
    prob = _channel_probability(sc)
    assert abs(rep.postselection_probability - prob) <= 1e-12
    for site in ("s0", "s1", "s2"):
        assert abs(rep.clicks[site] - _channel_probability(sc, site) / prob) <= 1e-12
    applied.clear()
    (row,) = disturbance_table(sc).disturbance
    assert row.site == "null" and len(applied) == 27 - 5 + 1
    weight = sum(abs(amp) ** 2 for amp in row.branches.values())
    assert abs(weight - _channel_probability(sc, insert=sc.site("null"))) <= 1e-12


@pytest.mark.parametrize("n", [0, 8, 9, 16, 17, 63])
def test_pattern_names_decode_every_bit(n):
    rng = np.random.default_rng(n)
    sites = tuple(f"r{k}" for k in range(n))
    top = (1 << n) - 1
    codes = np.array([0, top] + rng.integers(0, top, size=200, endpoint=True).tolist())
    want = [
        tuple(site for k, site in enumerate(sites) if code >> (n - 1 - k) & 1)
        for code in codes.tolist()
    ]
    assert codes.dtype == np.int64
    assert _pattern_names(sites, codes) == want


def test_sparse_disturbance_table_at_sixteen_pointers_matches_the_dense_oracle():
    # Strong detectors on all 4 paths at t1 to t4; a 50:50 beam splitter
    # mixes paths 0 and 1 between t2 and t3. Path 3 is empty, and the
    # post state dragged back to t2 is zero on path 0, which carries
    # amplitude: both sites below are null, one on an empty path and
    # one through a cancellation the detectors after the splitter undo.
    dim = 4
    stages = [f"t{k}" for k in range(6)]
    eye = np.eye(dim)
    splitter = eye.copy()
    splitter[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    mats = [eye, eye, splitter, eye, eye]
    pre = np.array([0.6, 0.48, 0.64, 0.0])
    back = unit([0.0, 0.7, 0.5 - 0.2j, 0.3j])
    sites = [
        {"label": f"k{k}p{j}", "stage": f"t{k}", "kind": "ket", "data": pairs(eye[j])}
        for k in range(1, 5)
        for j in range(dim)
    ]
    sites += [
        {"label": "empty", "stage": "t1", "kind": "ket", "data": pairs(eye[3])},
        {"label": "live", "stage": "t2", "kind": "ket", "data": pairs(eye[0])},
    ]
    pointers = [{"site": site["label"], "kind": "strong"} for site in sites[:16]]
    sc = _assemble(dim, stages, mats, pre, splitter @ back, sites, pointers)
    rows = {row.site: row for row in disturbance_table(sc).disturbance}
    for label in ("empty", "live"):
        want, _ = _strong_branches(_dense_pipeline(sc, insert=sc.site(label)), sc)
        kept = {pat: complex(b) for pat, b in want.items() if abs(complex(b)) > sc.tolerance}
        assert list(rows[label].branches) == list(kept)
        for pat, amp in kept.items():
            assert abs(rows[label].branches[pat] - amp) <= 1e-12
    assert not rows["empty"].disturbed
    assert len(rows["live"].branches) == 2


def _mixed_state(rng, dim, kinds):
    specs = [
        PointerSpec(site=f"r{k}", kind=kind, g=0.2, grid_size=31) for k, kind in enumerate(kinds)
    ]
    psi = Ket(random_state(rng, dim))
    couplings = [
        (projector_from_ket(Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim))), spec.site)
        for spec in specs
    ]
    return (specs,) + _couple_all(psi.amps, specs, couplings)


def test_pattern_keys_come_in_ndindex_order():
    rng = np.random.default_rng(5)
    kinds = ("strong", "weak", "strong", "strong", "weak", "strong", "strong")
    specs, branches, codes = _mixed_state(rng, 3, kinds)
    chi = unit(rng.normal(size=3) + 0j)
    live, block = _postselected(branches, codes, chi, specs)
    strong = [f"r{k}" for k, kind in enumerate(kinds) if kind == "strong"]
    order = [
        tuple(site for site, bit in zip(strong, combo) if bit)
        for combo in np.ndindex((2,) * len(strong))
    ]
    amps = pattern_amplitudes(live, block, specs)
    assert len(amps) > 1
    assert list(amps) == [p for p in order if p in amps]
    block /= np.linalg.norm(block)
    stats = click_readout(live, block, specs)
    assert len(stats["patterns"]) > 1
    assert list(stats["patterns"]) == [p for p in order if p in stats["patterns"]]


def test_live_branches_grow_at_most_twofold_per_coupling():
    specs = _strong_specs(("D", "O", "E'", "F'"))
    bits = register_bits(specs)
    assert bits == {"D": 0b1000, "O": 0b0100, "E'": 0b0010, "F'": 0b0001}
    branches, codes = _ready()
    assert branches.shape == (3, 1) and codes.tolist() == [0]
    sim = DenseSim(PSI, specs)
    # Out of 2, 4, 8 and 16 branches, the rest are exactly zero.
    for k, ((proj, site), live) in enumerate(zip(_FIG2, (2, 3, 5, 5))):
        branches, codes = couple(branches, codes, proj.matrix, bits[site], specs[k])
        sim.couple(proj, k)
        assert branches.shape == (3, live) and codes.shape == (live,)
        assert codes.dtype == np.int64 and len(set(codes.tolist())) == live
        assert not branches.flags.writeable and not codes.flags.writeable
        assert np.all(branches.any(axis=0))
        assert np.max(np.abs(_layout(branches, codes, specs) - sim.t)) <= 1e-15
        dropped = np.setdiff1d(np.arange(16), codes)
        assert not np.any(sim.t.reshape(3, 16)[:, dropped])
    strong, block = _postselected(branches, codes, CHI, specs)
    assert strong.tolist() == sorted(codes.tolist()) and block.shape == (5, 1)
    assert block.flags.writeable and not np.shares_memory(block, branches)
    assert np.array_equal(block[:, 0], (CHI @ branches)[np.argsort(codes)])


def test_partially_coupled_state_keeps_the_full_layout():
    specs = _strong_specs(("D", "O", "E'", "F'"))
    couplings = [(crossing_projector(), "O"), (path_projector(2), "F'")]
    branches, codes = _couple_all(PSI, specs, couplings)
    # Only the bits of O (0b0100) and F' (0b0001) are ever set.
    assert sorted(codes.tolist()) == [0b0000, 0b0001, 0b0100, 0b0101]
    assert branches.shape == (3, 4)
    sim = DenseSim(PSI, specs)
    sim.couple(crossing_projector(), 1)
    sim.couple(path_projector(2), 3)
    t = _layout(branches, codes, specs)
    assert np.max(np.abs(t - sim.t)) <= 1e-15
    # Uncoupled registers are still ready: their shifted halves are zero.
    assert not np.any(t[:, 1]) and not np.any(t[:, :, :, 1])
    strong, block = _postselected(branches, codes, CHI, specs)
    # One row per live code, in code order; the full layout is its scatter.
    assert strong.tolist() == [0b0000, 0b0001, 0b0100, 0b0101] and block.shape == (4, 1)
    fresh = _layout(CHI @ branches, codes, specs)
    assert np.array_equal(_block_layout(strong, block, specs), fresh)
    # Only patterns of live branches are named: D and E' never click.
    assert list(pattern_amplitudes(strong, block, specs)) == [(), ("F'",), ("O",), ("O", "F'")]
    block /= np.linalg.norm(block)
    stats = click_readout(strong, block, specs)
    assert stats["clicks"]["D"] == 0.0 and stats["clicks"]["E'"] == 0.0


def test_composite_holds_at_most_max_pointer_registers():
    specs = _strong_specs([f"r{k}" for k in range(MAX_POINTER_REGISTERS + 1)])
    bits = register_bits(specs[:-1])
    assert sorted(bits.values()) == [1 << k for k in range(MAX_POINTER_REGISTERS)]
    with pytest.raises(ContractError, match="64 pointer registers exceed the limit of 63"):
        register_bits(specs)
    # Strong registers take the high bits, weak ones the low bits.
    specs = [PointerSpec(site=f"r{k}", kind=kind) for k, kind in enumerate(("strong", "weak") * 2)]
    assert register_bits(specs) == {"r0": 0b1000, "r2": 0b0100, "r1": 0b0010, "r3": 0b0001}


def test_forty_pointer_scenario_is_refused_by_run_pointers(monkeypatch):
    # Forty sparse path detectors run: a handful of branches stay live.
    rep = run_pointers(from_dict(with_path_detectors(40)))
    assert len(rep.clicks) == 40 and abs(sum(rep.patterns.values()) - 1.0) <= 1e-12

    # A dense run or a wide weak block is refused by the amplitude bound,
    # also where a disturbance rerun leaves no live branch at all.
    bound = f"over the limit of {MAX_LIVE_AMPLITUDES}"
    for sc, what in (
        (from_dict(dense_strong(30)), "a coupling would hold 75497472 amplitudes"),
        (from_dict(weak_on_empty_path(30)), "the readout block would hold 1073741824 amplitudes"),
        (from_dict(weak_on_empty_path(63)), f"the readout block would hold {2**63} amplitudes"),
    ):
        for run in (run_pointers, disturbance_table):
            with pytest.raises(ContractError, match=f"^{what}, {bound}$"):
                run(sc)

    def allocates(*args):
        raise AssertionError("the pass allocated before checking the register limit")

    # The register limit is settled before the first array step runs.
    sc = from_dict(with_path_detectors(64))
    for step in ("act", "couple", "strong_block"):
        monkeypatch.setattr(runner, step, allocates)
    for run in (run_pointers, disturbance_table):  # O and O' are null sites
        with pytest.raises(ContractError, match="64 pointer registers exceed the limit of 63"):
            run(sc)


def test_click_patterns_hold_only_values_above_the_floor():
    # A projector almost orthogonal to the system leaves a click at A
    # with probability about 1e-14; the zero projector at C leaves every
    # pattern with C exactly zero. Neither kind is reported.
    specs = [PointerSpec(site="A", kind="strong"), PointerSpec(site="C", kind="strong")]
    specs.append(PointerSpec(site="W", kind="weak", g=0.2, grid_size=31))
    couplings = [
        (projector_from_ket(Ket([1.0, 1e-7])), "A"),
        (Operator(np.zeros((2, 2))), "C"),
        (identity(2), "W"),
    ]
    _, layout, stats = _package_run([0.0, 1.0], unit([1.0, 1.0]), couplings, specs)
    joint = (np.abs(layout) ** 2).sum(axis=-1)
    assert 0.0 < joint[1, 0] < PATTERN_FLOOR
    assert list(stats["patterns"]) == [()]
    assert abs(stats["patterns"][()] - 1.0) <= 1e-12
    assert 0.0 < stats["clicks"]["A"] < PATTERN_FLOOR
    _, _, four = _package_run(PSI, CHI, _FIG2, _strong_specs(("D", "O", "E'", "F'")))
    assert set(four["patterns"]) == {("D",), ("O", "E'"), ("O", "F'")}


# --- the paper's claim: a lone strong detector -------------------------------


def _random_timeline(rng, most_stages=7):
    """A scenario without sites on a random timeline (d 2-6, 2 to most_stages stages)."""
    dim = int(rng.integers(2, 7))
    stages = tuple(f"t{k}" for k in range(int(rng.integers(2, most_stages + 1))))
    mats = [random_unitary(rng, dim) for _ in stages[1:]]
    pre, post = random_state(rng, dim), random_state(rng, dim)
    return Scenario(
        timeline=Timeline(stages, tuple(Operator(u) for u in mats)),
        prepost=PrePost(Ket(pre), Ket(post)),
        sites=(),
    )


def _carried(sc, k):
    """The pre and post states carried to stage index k."""
    mats = [seg.matrix for seg in sc.timeline.segments]
    pre_t, post_t = sc.prepost.pre.amps, sc.prepost.post.amps
    for u in mats[:k]:
        pre_t = u @ pre_t
    for u in reversed(mats[k:]):
        post_t = u.conj().T @ post_t
    return pre_t, post_t


def _lone_detector_scenario(rng):
    """Random timeline (d 2-6, 2-10 stages) with rank-1 and rank-2 sites.

    Half the sites are null by construction: their subspace is
    orthogonal to the evolved pre state, or to the post state dragged
    back, at their stage.
    """
    sc = _random_timeline(rng, most_stages=10)
    dim, stages = sc.dim, sc.timeline.stages
    sites = []
    for rank, null in ((1, False), (1, True), (2, False), (2, True)):
        if rank == 2 and null and dim < 3:
            continue
        s = int(rng.integers(len(stages)))
        cols = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        if null:
            psi = _carried(sc, s)[0 if rng.random() < 0.5 else 1]
            cols = cols - np.outer(psi, psi.conj() @ cols)
        label, stage = f"s{len(sites)}", stages[s]
        if rank == 1:
            sites.append(Site(label, stage, "ket", cols[:, 0]))
        else:
            q = np.linalg.qr(cols)[0]
            sites.append(Site(label, stage, "matrix", q @ q.conj().T))
    return replace(sc, sites=tuple(sites))


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


# --- the paper's claim as an exact law: a lone pointer of either kind --------


def _lone_pointer_draw(rng, null):
    """Random timeline with one rank-1 site at a random stage.

    Returns the scenario, without pointers, the site's ket v, and the pre
    and post states carried to its stage. A null site's ket is orthogonal
    to the post state there, so its transition amplitude vanishes.
    """
    sc = _random_timeline(rng)
    s = int(rng.integers(len(sc.timeline.stages)))
    pre_t, post_t = _carried(sc, s)
    v = random_state(rng, sc.dim)
    if null:
        v = unit(v - post_t * np.vdot(post_t, v))
    return replace(sc, sites=(Site("s", sc.timeline.stages[s], "ket", v),)), v, pre_t, post_t


def test_a_lone_pointer_reads_exactly_a_ready_plus_tau_kicked():
    # Law 1: with tau = <post(t)|P|pre(t)> and a = <post(t)|pre(t)> - tau,
    # the postselected pointer state is exactly a|ready> + tau|kicked>, at
    # any g. A strong pointer clicks at |tau|^2 / (|a|^2 + |tau|^2); a null
    # tau leaves a weak packet exactly unshifted, not only to first order.
    q = np.linspace(-12.0, 12.0, 401)
    ready = unit(np.exp(-(q**2) / 4.0))
    weak = {
        g: PointerSpec(site="s", kind="weak", g=g, grid_size=401, grid_extent=12.0)
        for g in (0.01, 0.1, 0.5, 0.9)
    }
    rng = np.random.default_rng(20261019)
    for draw in range(60):
        null = draw % 2 == 1
        sc, v, pre_t, post_t = _lone_pointer_draw(rng, null)
        tau = np.vdot(post_t, v) * np.vdot(v, pre_t)
        a = np.vdot(post_t, pre_t) - tau
        site = sc.sites[0]
        engine_tau = transition_amplitude(sc.timeline, sc.prepost, site.projector, site.stage)
        assert abs(tau - engine_tau) <= 1e-13
        rep = run_pointers(replace(sc, pointers=(PointerSpec(site="s", kind="strong"),)))
        assert not rep.degenerate
        assert abs(rep.clicks["s"] - abs(tau) ** 2 / (abs(a) ** 2 + abs(tau) ** 2)) <= 1e-13
        for g, spec in weak.items():
            psi = a * ready + tau * unit(np.exp(-((q - g) ** 2) / 4.0))
            norm2 = float(np.sum(np.abs(psi) ** 2))
            dist = np.abs(psi) ** 2 / norm2
            mean = float(dist @ q)
            rep = run_pointers(replace(sc, pointers=(spec,)))
            stats = rep.weak_stats["s"]
            assert not rep.degenerate
            assert abs(rep.postselection_probability - norm2) <= 1e-13
            assert abs(stats.mean - mean) <= 1e-13
            assert abs(stats.variance - (float(dist @ q**2) - mean**2)) <= 1e-13
            assert np.max(np.abs(stats.probabilities - dist)) <= 1e-13
            if null:
                assert abs(tau) <= 1e-13 and abs(stats.mean) <= 1e-13


# --- the paper's claim beside a second pointer ---------------------------------


def _pass_amplitude(sc, projections):
    """<post| ... |pre> through sc's segments, with each projector applied at
    its stage index; projectors at one stage act in list order."""
    psi = sc.prepost.pre.amps
    for k in range(len(sc.timeline.stages)):
        if k > 0:
            psi = sc.timeline.segments[k - 1].matrix @ psi
        for stage, proj in projections:
            if stage == k:
                psi = proj @ psi
    return np.vdot(sc.prepost.post.amps, psi)


def _second_pointer_draw(rng, draw):
    """Random timeline with a pointer site e and a null site o.

    draw cycles e before, at and after o's stage, then o's ket orthogonal
    to the post state or to the pre state carried to o's stage.
    """
    sc = _random_timeline(rng)
    stages = sc.timeline.stages
    if draw % 3 == 1:
        at_e = at_o = int(rng.integers(len(stages)))
    else:
        lo, hi = sorted(rng.choice(len(stages), size=2, replace=False).tolist())
        at_e, at_o = (lo, hi) if draw % 3 == 0 else (hi, lo)
    pre_t, post_t = _carried(sc, at_o)
    x = pre_t if draw // 3 % 2 else post_t
    v = random_state(rng, sc.dim)
    e = Site("e", stages[at_e], "ket", random_state(rng, sc.dim))
    return replace(sc, sites=(e, Site("o", stages[at_o], "ket", unit(v - x * np.vdot(x, v)))))


def _check_second_pointer_law(sc, e, o, g):
    """Law 2 for one pointer at site e beside the null site o, at weak
    strength g. Returns the sequential amplitude s of o's disturbance row."""
    index = {stage: k for k, stage in enumerate(sc.timeline.stages)}

    def sequential(first, second):
        pair = [(index[sc.site(x).stage], sc.site(x).projector.matrix) for x in (first, second)]
        return _pass_amplitude(sc, sorted(pair, key=lambda p: p[0]))

    def row(*pointers):
        rows = {r.site: r for r in disturbance_table(replace(sc, pointers=pointers)).disturbance}
        return rows[o].branches

    tol = sc.tolerance
    # The inserted P_o acts before the couplings at its own stage.
    s = sequential(o, e)
    want = {pat: amp for pat, amp in {(): -s, (e,): s}.items() if abs(amp) > tol}
    got = row(PointerSpec(site=e, kind="strong"))
    assert got.keys() == want.keys()
    assert all(abs(got[pat] - amp) <= 1e-12 for pat, amp in want.items())
    weak = PointerSpec(site=e, kind="weak", g=g, grid_size=401, grid_extent=12.0)
    ov, rn = weak.moved_coeffs
    kick2 = abs(ov - 1) ** 2 + abs(rn) ** 2
    norm = abs(s) * np.sqrt(kick2)
    got = row(weak)
    assert got.keys() == ({()} if norm > tol else set())
    assert all(abs(amp - norm) <= 1e-12 for amp in got.values())
    # Couplings at one stage go in declaration order: e's, then o's.
    rep = run_pointers(replace(sc, pointers=(weak, PointerSpec(site=o, kind="strong"))))
    assert not rep.degenerate
    clicked = rep.clicks[o] * rep.postselection_probability
    assert abs(clicked - abs(sequential(e, o)) ** 2 * kick2) <= 1e-12
    return s


def test_a_null_site_beside_one_pointer_responds_only_through_the_sequential_amplitude():
    # Law 2: with s = <post| ... P_o ... P_e ... |pre> in pass order and
    # <post(t_o)|P_o|pre(t_o)> = 0, o's disturbance row beside a strong e
    # is exactly {(): -s, (e,): s}, and beside a weak e one branch of norm
    # |s| * |kicked - ready|. A strong pointer at o beside a weak e clicks
    # with unnormalized probability |s|^2 * |kicked - ready|^2, second
    # order in e's kick, at any g.
    gs = (0.01, 0.1, 0.5, 0.9)
    rng = np.random.default_rng(20261020)
    reached = 0
    for draw in range(120):
        sc = _second_pointer_draw(rng, draw)
        o = sc.site("o")
        assert abs(transition_amplitude(sc.timeline, sc.prepost, o.projector, o.stage)) <= 1e-13
        s = _check_second_pointer_law(sc, "e", "o", gs[draw // 6 % 4])
        reached += abs(s) > sc.tolerance
    # In half the draws o's ket is orthogonal to the state that meets
    # P_o first in the row's pass, so s vanishes there.
    assert reached == 60
    third = 1.0 / 3.0
    sign = {"E": 1.0, "F": -1.0, "E'": 1.0, "F'": -1.0}
    for make, want in (
        (default_three_path, {("E'", "O"): third, ("F'", "O"): -third}),
        (three_path_rank2_crossing, {(e, o): sign[e] * third for e in sign for o in ("O", "O'")}),
    ):
        sc = make()
        for e in ("E", "F", "D", "E'", "F'"):
            for o in ("O", "O'"):
                for g in gs:
                    s = _check_second_pointer_law(sc, e, o, g)
                    assert abs(s - want.get((e, o), 0.0)) <= 1e-12
