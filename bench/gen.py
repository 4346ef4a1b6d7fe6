"""Seeded scenario generator for the benchmark.

Every function returns plain dicts in the scenario file format that
`wvlab.scenario.from_dict` accepts, written exactly as
`wvlab.scenario.to_dict` would write them back (floats everywhere a
float is stored, every pointer field present, `sum_rules` only when
non-empty). That makes the report checksum predictable from the dict
alone: it is the SHA-256 of the dict's canonical JSON.

The same seed gives byte-identical JSON. Only numpy's seeded generator
and LAPACK QR (single-threaded) feed the numbers.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

TOLERANCE = 1e-10

# Undisturbed postselection amplitudes below this are redrawn, so no
# generated weak value sits near a degenerate denominator.
MIN_POST_AMPLITUDE = 0.05

# Pointer-coupled postselection probabilities below this are redrawn.
MIN_POINTER_PROBABILITY = 1e-3

# PointerSpec defaults; to_dict writes every field back, strong or weak.
DEFAULT_G = 0.01
WEAK_SIGMA = 1.0
WEAK_GRID = 201
WEAK_EXTENT = 6.0


# Same construction as the helpers in tests/test_acceptance.py, copied so
# the benchmark does not import from the test suite.
def random_unitary(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Independent stream for one scenario, addressed by (seed, path...)."""
    return np.random.default_rng([int(seed), *[int(p) for p in path]])


def canonical_json(d: dict) -> str:
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def checksum(d: dict) -> str:
    """The checksum wvlab reports for a scenario loaded from d."""
    return hashlib.sha256(canonical_json(d).encode("utf-8")).hexdigest()


def pairs(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex).reshape(-1)]


def strong_pointer(site: str) -> dict:
    return {"site": site, "kind": "strong", "g": DEFAULT_G, "sigma": WEAK_SIGMA,
            "grid_size": WEAK_GRID, "grid_extent": WEAK_EXTENT}


def weak_pointer(site: str, g: float) -> dict:
    return {"site": site, "kind": "weak", "g": float(g), "sigma": WEAK_SIGMA,
            "grid_size": WEAK_GRID, "grid_extent": WEAK_EXTENT}


def stage_names(n: int) -> list[str]:
    return [f"t{k}" for k in range(n)]


def assemble(dim, stages, mats, pre, post, sites, pointers=(), sum_rules=()) -> dict:
    """Scenario dict in to_dict's layout.

    sites: (label, stage, vector) triples for rank-1 sites, or
    (label, stage, matrix) with a 2-d array for matrix sites.
    """
    out = {
        "dim": int(dim),
        "stages": list(stages),
        "segments": [
            {"from": stages[k], "to": stages[k + 1], "matrix": pairs(m)}
            for k, m in enumerate(mats)
        ],
        "pre": pairs(pre),
        "post": pairs(post),
        "sites": [
            {"label": label, "stage": stage,
             "kind": "matrix" if np.ndim(data) == 2 else "ket", "data": pairs(data)}
            for label, stage, data in sites
        ],
        "pointers": [dict(p) for p in pointers],
    }
    if sum_rules:
        out["sum_rules"] = [{"sites": list(s), "stage": st} for s, st in sum_rules]
    out["tolerance"] = TOLERANCE
    return out


def _total(mats, dim):
    u = np.eye(dim, dtype=complex)
    for m in mats:
        u = m @ u
    return u


def _post_for(rng, mats, pre, dim):
    u = _total(mats, dim)
    post = random_state(rng, dim)
    while abs(np.vdot(post, u @ pre)) <= MIN_POST_AMPLITUDE:
        post = random_state(rng, dim)
    return post


def _retrodicted(mats, post, k):
    """<post| dragged back to stage k, as a ket."""
    back = np.asarray(post, dtype=complex)
    for m in reversed(mats[k:]):
        back = m.conj().T @ back
    return back


# --- wv-timeline ----------------------------------------------------------

SUM_RULE_EVERY = 25


def wv_timeline(seed: int, index: int, stages: int, dim: int) -> dict:
    """Random-unitary timeline with 1-2 rank-1 sites per stage, no pointers.

    Exactly half the stages (rounded down) carry two sites, so the site
    count depends only on the size. A complete-basis sum rule sits at
    stage 0 and every SUM_RULE_EVERY stages after it.
    """
    rng = rng_for(seed, 1, index)
    names = stage_names(stages)
    mats = [random_unitary(rng, dim) for _ in range(stages - 1)]
    pre = random_state(rng, dim)
    post = _post_for(rng, mats, pre, dim)
    doubles = set(int(k) for k in rng.choice(stages, size=stages // 2, replace=False))
    sites, rules = [], []
    for k, st in enumerate(names):
        for j in range(2 if k in doubles else 1):
            sites.append((f"s{k}_{j}", st, random_state(rng, dim)))
        if k % SUM_RULE_EVERY == 0:
            basis = random_unitary(rng, dim)
            labels = [f"b{k}_{j}" for j in range(dim)]
            sites.extend((lab, st, basis[:, j]) for j, lab in enumerate(labels))
            rules.append((labels, st))
    return assemble(dim, names, mats, pre, post, sites, sum_rules=rules)


# --- strong-clicks --------------------------------------------------------


def _pointer_probability(mats, pre, post, site_ops, dim):
    """Postselection probability with every site dephased (strong pointers)."""
    rho = np.outer(pre, pre.conj())
    for k in range(len(mats) + 1):
        if k > 0:
            rho = mats[k - 1] @ rho @ mats[k - 1].conj().T
        for stage_k, p in site_ops:
            if stage_k == k:
                q = np.eye(dim) - p
                rho = p @ rho @ p + q @ rho @ q
    return float(np.real(np.vdot(post, rho @ post)))


def strong_dense(seed: int, index: int, n: int, dim: int) -> dict:
    """Random unitaries and random rank-1 sites: nearly every pattern has support."""
    rng = rng_for(seed, 2, index)
    stages = 4
    names = stage_names(stages)
    mats = [random_unitary(rng, dim) for _ in range(stages - 1)]
    pre = random_state(rng, dim)
    placement = [int(k) for k in rng.integers(0, stages, size=n)]
    vecs = [random_state(rng, dim) for _ in range(n)]
    ops = [(k, np.outer(v, v.conj())) for k, v in zip(placement, vecs)]
    while True:
        post = _post_for(rng, mats, pre, dim)
        if _pointer_probability(mats, pre, post, ops, dim) >= MIN_POINTER_PROBABILITY:
            break
    order = np.argsort(placement, kind="stable")
    sites = [(f"p{j}", names[placement[j]], vecs[j]) for j in order]
    pointers = [strong_pointer(f"p{j}") for j in order]
    return assemble(dim, names, mats, pre, post, sites, pointers)


def _mixer(rng, dim):
    """50:50 beam splitter with random phases on a random pair of paths."""
    a, b = (int(x) for x in rng.choice(dim, size=2, replace=False))
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    m = np.eye(dim, dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    m[a, a], m[a, b] = s * phase[0], s * phase[0]
    m[b, a], m[b, b] = s * phase[1], -s * phase[1]
    return m


def _permutation(rng, dim):
    return np.eye(dim, dtype=complex)[rng.permutation(dim)]


MIXERS = 2


def strong_sparse(seed: int, index: int, n: int, dim: int) -> dict:
    """Multi-path interferometer scaled up from the three-path family.

    Segments are identities or path permutations, except MIXERS 50:50
    beam splitters; sites are path projectors |j><j| at intermediate
    stages, each with a strong pointer, so few click patterns survive.
    """
    rng = rng_for(seed, 3, index)
    stages = max(4, -(-n // dim) + 2)
    names = stage_names(stages)
    mixer_at = set(int(k) for k in rng.choice(stages - 1, size=min(MIXERS, stages - 1),
                                               replace=False))
    mats = []
    for k in range(stages - 1):
        if k in mixer_at:
            mats.append(_mixer(rng, dim))
        elif rng.random() < 0.5:
            mats.append(np.eye(dim, dtype=complex))
        else:
            mats.append(_permutation(rng, dim))
    pre = np.ones(dim, dtype=complex) / np.sqrt(dim)
    slots = [(k, j) for k in range(1, stages - 1) for j in range(dim)]
    if len(slots) < n:
        slots += [(stages - 1, j) for j in range(dim)]
    chosen = sorted(slots[int(i)] for i in rng.choice(len(slots), size=n, replace=False))
    eye = np.eye(dim, dtype=complex)
    ops = [(k, np.outer(eye[j], eye[j])) for k, j in chosen]
    while True:
        post = _post_for(rng, mats, pre, dim)
        if _pointer_probability(mats, pre, post, ops, dim) >= MIN_POINTER_PROBABILITY:
            break
    sites = [(f"k{k}p{j}", names[k], eye[j]) for k, j in chosen]
    pointers = [strong_pointer(label) for label, _, _ in sites]
    return assemble(dim, names, mats, pre, post, sites, pointers)


# --- weak-disturbance -----------------------------------------------------


def weak_disturbance(seed: int, index: int, dim: int, n_weak: int, n_strong: int,
                     n_null: int) -> dict:
    """Weak and strong pointers on random sites plus engineered null sites.

    A null site is a rank-1 site orthogonal to the retrodicted post state
    at its stage, so its undisturbed transition amplitude vanishes and
    the disturbance analysis reruns the pipeline for it.
    """
    rng = rng_for(seed, 4, index)
    stages = 5
    names = stage_names(stages)
    mats = [random_unitary(rng, dim) for _ in range(stages - 1)]
    pre = random_state(rng, dim)
    post = _post_for(rng, mats, pre, dim)
    n_ptr = n_weak + n_strong
    placement = sorted(int(k) for k in rng.integers(0, stages, size=n_ptr))
    sites, pointers = [], []
    kinds = ["weak"] * n_weak + ["strong"] * n_strong
    kinds = [kinds[int(i)] for i in rng.permutation(n_ptr)]
    for j, (k, kind) in enumerate(zip(placement, kinds)):
        label = f"{kind[0]}{j}"
        sites.append((label, names[k], random_state(rng, dim)))
        if kind == "weak":
            pointers.append(weak_pointer(label, rng.uniform(0.005, 0.02)))
        else:
            pointers.append(strong_pointer(label))
    for j in range(n_null):
        k = int(rng.integers(1, stages - 1))
        back = _retrodicted(mats, post, k)
        back = back / np.linalg.norm(back)
        w = random_state(rng, dim)
        null = w - back * np.vdot(back, w)
        sites.append((f"n{j}", names[k], null / np.linalg.norm(null)))
    return assemble(dim, names, mats, pre, post, sites, pointers)


# --- the paper's three-path family ----------------------------------------


def three_path(pointers=()) -> dict:
    """The built-in three-path scenario, rebuilt independently of wvlab."""
    s3, s2 = 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(2.0)
    names = ["t_i", "t_1", "t_2", "t_3", "t_4", "t_f"]
    eye = np.eye(3, dtype=complex)
    crossing = np.array([0.0, s2, s2], dtype=complex)
    sites = [("E", "t_1", eye[1]), ("F", "t_1", eye[2]), ("D", "t_2", eye[0]),
             ("O", "t_2", crossing), ("E'", "t_3", eye[1]), ("F'", "t_3", eye[2]),
             ("O'", "t_4", crossing)]
    rules = [(["D", "E", "F"], "t_1"), (["D", "E'", "F'"], "t_3")]
    return assemble(3, names, [eye] * 5, np.array([s3, s3, s3]), np.array([s3, s3, -s3]),
                    sites, pointers, rules)


THREE_PATH_ORDER = ("E", "F", "D", "O", "E'", "F'", "O'")


def builtin_dict(name: str) -> dict:
    if name == "three-path":
        return three_path()
    if name == "three-path-fig1":
        return three_path([strong_pointer(s) for s in ("D", "O")])
    if name == "three-path-fig1-oprime":
        return three_path([strong_pointer(s) for s in ("D", "O", "O'")])
    if name == "three-path-fig2":
        return three_path([strong_pointer(s) for s in ("D", "O", "E'", "F'")])
    if name == "three-path-allweak":
        return three_path([weak_pointer(s, DEFAULT_G) for s in THREE_PATH_ORDER])
    raise KeyError(name)


BUILTINS = ("three-path", "three-path-fig1", "three-path-fig1-oprime",
            "three-path-fig2", "three-path-allweak")


# --- files the CLI must reject (exit 2) -----------------------------------


def rejected(kind: str, seed: int) -> dict:
    """A small valid scenario broken in one documented way."""
    rng = rng_for(seed, 5)
    d = strong_dense(seed, 10_000, 2, 3)
    if kind == "non-unitary-segment":
        d["segments"][0]["matrix"][0] = [2.0, 0.0]
    elif kind == "non-normalized-state":
        d["pre"][0] = [d["pre"][0][0] + 0.5, d["pre"][0][1]]
    elif kind == "non-projector-site":
        m = rng.normal(size=(3, 3))
        d["sites"].append({"label": "bad", "stage": d["stages"][1], "kind": "matrix",
                           "data": pairs(m)})
    elif kind == "unknown-site":
        d["pointers"].append(strong_pointer("nowhere"))
    else:
        raise KeyError(kind)
    return d


REJECT_KINDS = ("non-unitary-segment", "non-normalized-state", "non-projector-site",
                "unknown-site")
