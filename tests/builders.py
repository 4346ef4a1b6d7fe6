"""Builders the test modules share: random states and unitaries, and
scenario files as plain dicts, built from their parts.

It also builds the oversize pointer sets that the run and CLI tests
feed to the amplitude and register limits. pytest does not collect
this module; test modules import it.
"""

from __future__ import annotations

import numpy as np

from wvlab.scenario import default_three_path, to_dict


def unit(v) -> np.ndarray:
    """v as a complex array scaled to norm 1."""
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def random_state(rng, n) -> np.ndarray:
    """A random complex unit vector of length n."""
    return unit(rng.normal(size=n) + 1j * rng.normal(size=n))


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
