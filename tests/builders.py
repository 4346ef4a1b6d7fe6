"""Builders the test modules share, each stated once: the paper's
three-path example (its states, path and crossing projectors and weak
values), the random states and unitaries the modules draw, and scenario
files as plain dicts, built from their parts.

It also builds the oversize pointer sets that the run and CLI tests
feed to the amplitude and register limits, and the north-star
composite that exercises many stages, many pointers and a large
dimension at once. pytest does not collect this module; test modules
and CI steps import it.
"""

from __future__ import annotations

import os

import numpy as np

from wvlab.qcore import Ket, basis_ket, projector_from_ket
from wvlab.scenario import default_three_path, to_dict

# The three-path example: its pre and post states and the weak values of
# its seven sites, null at the crossings O and O'.
S3 = 1.0 / np.sqrt(3.0)
PSI = np.array([S3, S3, S3])
CHI = np.array([S3, S3, -S3])
EXPECTED_WEAK_VALUES = {"E": 1.0, "F": -1.0, "D": 1.0, "O": 0.0, "E'": 1.0, "F'": -1.0, "O'": 0.0}
# A file-loaded scenario beside the 3-dim built-ins: dim 4, five stages,
# strong and weak pointers, null ket and matrix sites and a sum rule.
# Its entries are multiples of 1/2, so every amplitude is exact.
FOUR_LEVEL = os.path.join(os.path.dirname(__file__), "data", "four_level.json")


def path_projector(index):
    """The projector on path index (0, 1 or 2) of the three-path interferometer."""
    return projector_from_ket(basis_ket(3, index))


def crossing_projector():
    """The rank-1 projector of the crossings O and O', on path indices 1 and 2 equally."""
    return projector_from_ket(Ket([0.0, 1.0, 1.0]))


def unit(v) -> np.ndarray:
    """v as a complex array scaled to norm 1."""
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def random_state(rng, n) -> np.ndarray:
    """A random complex unit vector of length n."""
    return unit(rng.normal(size=n) + 1j * rng.normal(size=n))


def qr_unitary(rng, n):
    """A random n x n unitary: the Q of a complex Gaussian matrix, phases unfixed."""
    return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]


def random_unitary(rng, n):
    """A Haar-random n x n unitary: QR with the phases of R's diagonal fixed."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def pairs(vec):
    """[re, im] pairs of a vector, or of a matrix in row-major order."""
    return [[float(z.real), float(z.imag)] for z in np.ravel(vec)]


def assemble(dim, stages, mats, pre, post, sites, pointers, **rest):
    """A scenario file from its parts; rest holds further top-level keys."""
    return {
        "dim": dim,
        "stages": stages,
        "segments": [
            {"from": a, "to": b, "matrix": pairs(u)} for a, b, u in zip(stages, stages[1:], mats)
        ],
        "pre": pairs(pre),
        "post": pairs(post),
        "sites": sites,
        "pointers": pointers,
        **rest,
    }


def with_path_detectors(n):
    """The three-path scenario plus n strong detectors on path projectors,
    cycling over stages, then paths."""
    d = to_dict(default_three_path())
    stages = d["stages"]
    for k in range(n):
        data = [[0.0, 0.0]] * d["dim"]
        data[k // len(stages) % d["dim"]] = [1.0, 0.0]
        d["sites"].append({"label": f"x{k}", "stage": stages[k % len(stages)], "kind": "ket",
                           "data": data})
        d["pointers"].append({"site": f"x{k}", "kind": "strong"})
    return d


def dense_strong(n, dim=9):
    """n strong pointers on random rank-1 sites behind random segments.

    No coupling leaves a branch exactly zero, so the live amplitudes
    double with every coupling. The site "null" is orthogonal to the
    post state at the last stage, after every coupling.
    """
    rng = np.random.default_rng(n)

    def vec():
        return rng.normal(size=dim) + 1j * rng.normal(size=dim)

    stages = ["t0", "t1", "t2", "t3"]
    mats = [np.linalg.qr(np.array([vec() for _ in range(dim)]))[0] for _ in stages[1:]]
    pre, post = (v / np.linalg.norm(v) for v in (vec(), vec()))
    sites = [
        {"label": f"s{k}", "stage": stages[k % 3], "kind": "ket", "data": pairs(vec())}
        for k in range(n)
    ]
    v = vec()
    sites.append({"label": "null", "stage": "t3", "kind": "ket",
                  "data": pairs(v - np.vdot(post, v) * post)})
    pointers = [{"site": f"s{k}", "kind": "strong"} for k in range(n)]
    return assemble(dim, stages, mats, pre, post, sites, pointers)


def weak_on_empty_path(n):
    """n weak pointers on path 2, which carries no amplitude.

    Every branch stays live, but the readout block spans all 2**n weak
    codes. The site "z" on path 0 is null because the post state misses
    that path, so its disturbance rerun keeps a live branch.
    """
    eye = np.eye(3)
    stages = ["t0", "t1", "t2", "t3"]
    sites = [
        {"label": f"e{k}", "stage": stages[k % 4], "kind": "ket", "data": pairs(eye[2])}
        for k in range(n)
    ]
    sites.append({"label": "z", "stage": "t1", "kind": "ket", "data": pairs(eye[0])})
    pointers = [{"site": f"e{k}", "kind": "weak", "g": 0.2, "grid_size": 31} for k in range(n)]
    pre, post = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0), np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    return assemble(3, stages, [eye] * 3, pre, post, sites, pointers)


def composite(seed, stages, dim, n_strong, n_weak, n_null):
    """Many stages, many pointers and a large dimension at once.

    A sparse interferometer: identity or path-permutation segments,
    except three 50:50 mixers with random phases. pre is uniform and
    post random. n_strong strong and n_weak weak (g = 0.05) pointers
    probe path projectors, each at its own random (stage, path) slot,
    declared in slot order. n_null ket sites are orthogonal to post
    dragged back to their stage, so their transition amplitudes vanish.
    """
    rng = np.random.default_rng(seed)
    eye = np.eye(dim, dtype=complex)
    names = [f"t{k}" for k in range(stages)]
    mixers = set(rng.choice(stages - 1, size=3, replace=False).tolist())
    mats = []
    for k in range(stages - 1):
        if k in mixers:
            m, pair = eye.copy(), rng.choice(dim, size=2, replace=False)
            phase = np.exp(2j * np.pi * rng.random(2))[:, None]
            m[np.ix_(pair, pair)] = phase * np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        else:
            m = eye[rng.permutation(dim)] if rng.random() < 0.5 else eye
        mats.append(m)
    pre, post = np.full(dim, dim**-0.5), random_state(rng, dim)
    n_ptr = n_strong + n_weak
    slots = np.sort(rng.choice((stages - 1) * dim, size=n_ptr, replace=False)) + dim
    kinds = rng.permutation(["strong"] * n_strong + ["weak"] * n_weak)
    sites, pointers = [], []
    for j, (slot, kind) in enumerate(zip(slots.tolist(), kinds.tolist())):
        stage, path = divmod(slot, dim)
        label = f"{kind[0]}{j}"
        sites.append({"label": label, "stage": names[stage], "kind": "ket",
                      "data": pairs(eye[path])})
        pointers.append({"site": label, "kind": kind, **({"g": 0.05} if kind == "weak" else {})})
    for j in range(n_null):
        k = int(rng.integers(1, stages))
        back = post
        for m in reversed(mats[k:]):
            back = m.conj().T @ back
        w = random_state(rng, dim)
        sites.append({"label": f"n{j}", "stage": names[k], "kind": "ket",
                      "data": pairs(unit(w - back * np.vdot(back, w) / np.vdot(back, back)))})
    return assemble(dim, names, mats, pre, post, sites, pointers)
