"""Independent references for every benchmark op, from scenario dicts only.

Nothing here imports wvlab. Weak values use the direct matrix-product
formula of the acceptance suite's criterion 6. Pointers are treated as
channels on the system density matrix: coupling a register and tracing
it out maps

    rho -> Q rho Q + <k|k> P rho P + <r|k> P rho Q + <k|r> Q rho P

with P the site projector, Q = 1 - P, |r> the ready and |k> the kicked
pointer state. A strong pointer has <r|k> = 0, so it dephases:
rho -> P rho P + Q rho Q. A weak pointer is a Gaussian packet on its
grid, and its position statistics come from the 2x2 block of system
operators that stays correlated with its ready/kicked states.
"""

from __future__ import annotations

import itertools

import numpy as np


def vec(p) -> np.ndarray:
    a = np.asarray(p, dtype=float).reshape(-1, 2)
    return a[:, 0] + 1j * a[:, 1]


class Model:
    """Arrays of one scenario dict, in the order the file declares them."""

    def __init__(self, d: dict):
        self.dim = dim = d["dim"]
        self.stages = list(d["stages"])
        self.stage_index = {s: k for k, s in enumerate(self.stages)}
        self.mats = [vec(seg["matrix"]).reshape(dim, dim) for seg in d["segments"]]
        self.pre = vec(d["pre"])
        self.post = vec(d["post"])
        self.tolerance = float(d.get("tolerance", 1e-10))
        self.sites = []  # (label, stage index, projector)
        for s in d["sites"]:
            if s["kind"] == "ket":
                v = vec(s["data"])
                v = v / np.linalg.norm(v)
                proj = np.outer(v, v.conj())
            else:
                proj = vec(s["data"]).reshape(dim, dim)
            self.sites.append((s["label"], self.stage_index[s["stage"]], proj))
        self.site = {label: (k, proj) for label, k, proj in self.sites}
        self.pointers = [dict(p) for p in d.get("pointers", [])]
        self.sum_rules = [(list(r["sites"]), r["stage"]) for r in d.get("sum_rules", [])]
        self.strong = [p["site"] for p in self.pointers if p["kind"] == "strong"]


# --- weak values ----------------------------------------------------------


def weak_values(m: Model) -> tuple[dict, complex]:
    """site -> (numerator, value), and the undisturbed denominator.

    num = <post| U_after P U_before |pre>, den = <post| U_total |pre>.
    """
    n = len(m.stages)
    eye = np.eye(m.dim, dtype=complex)
    before = [eye]
    for u in m.mats:
        before.append(u @ before[-1])
    after = [eye] * n
    for k in range(n - 2, -1, -1):
        after[k] = after[k + 1] @ m.mats[k]
    den = complex(np.vdot(m.post, before[-1] @ m.pre))
    out = {}
    for label, k, proj in m.sites:
        num = complex(np.vdot(m.post, after[k] @ (proj @ (before[k] @ m.pre))))
        out[label] = (num, num / den)
    return out, den


def sum_rules(m: Model, wv: dict) -> list[complex]:
    return [sum(wv[label][1] for label in labels) for labels, _ in m.sum_rules]


# --- pointers as channels -------------------------------------------------


def packets(p: dict):
    """Grid, ready packet and kicked packet of a weak pointer, both unit norm."""
    half = p["grid_extent"] * p["sigma"]
    q = np.linspace(-half, half, p["grid_size"])
    ready = np.exp(-(q**2) / (4.0 * p["sigma"] ** 2))
    kicked = np.exp(-((q - p["g"]) ** 2) / (4.0 * p["sigma"] ** 2))
    return q, ready / np.linalg.norm(ready), kicked / np.linalg.norm(kicked)


def _overlap(p: dict) -> float:
    if p["kind"] == "strong":
        return 0.0
    _, ready, kicked = packets(p)
    return float(np.dot(ready, kicked))


def _schedule(m: Model, insert: str | None = None):
    """(stage index, 'insert' | pointer index) in the order the pipeline acts.

    At each stage the segment into it acts first, then an inserted
    projector, then that stage's couplings in declaration order.
    """
    plan = []
    for k in range(len(m.stages)):
        if insert is not None and m.site[insert][0] == k:
            plan.append((k, "insert"))
        for j, p in enumerate(m.pointers):
            if m.site[p["site"]][0] == k:
                plan.append((k, j))
    return plan


def _run(m: Model, rho, select: dict, insert: str | None = None, keep: int | None = None):
    """Propagate rho through the pipeline.

    select maps pointer index -> 0/1 for a selective strong outcome
    (Q rho Q or P rho P); other pointers act as full channels. With keep
    set, that pointer's register stays correlated: rho becomes a dict of
    2x2 blocks {(a, b): operator} over its ready (0) / kicked (1) states.
    Returns <post| . |post> of rho or of each block.
    """
    plan = _schedule(m, insert)
    eye = np.eye(m.dim, dtype=complex)
    blocks = {None: rho}
    k_now = 0

    def act(fn):
        for key in blocks:
            blocks[key] = fn(blocks[key])

    for k, what in plan:
        while k_now < k:
            u = m.mats[k_now]
            act(lambda r, u=u: u @ r @ u.conj().T)
            k_now += 1
        if what == "insert":
            proj = m.site[insert][1]
            act(lambda r: proj @ r @ proj)
            continue
        p = m.pointers[what]
        proj = m.site[p["site"]][1]
        q = eye - proj
        if what == keep:
            r = blocks.pop(None)
            blocks = {(0, 0): q @ r @ q, (1, 1): proj @ r @ proj,
                      (1, 0): proj @ r @ q, (0, 1): q @ r @ proj}
        elif what in select:
            side = proj if select[what] else q
            act(lambda r: side @ r @ side)
        else:
            c = _overlap(p)
            act(lambda r: q @ r @ q + proj @ r @ proj + c * (proj @ r @ q + q @ r @ proj))
    while k_now < len(m.mats):
        u = m.mats[k_now]
        act(lambda r, u=u: u @ r @ u.conj().T)
        k_now += 1
    return {key: complex(np.vdot(m.post, r @ m.post)) for key, r in blocks.items()}


def pointer_run(m: Model) -> dict:
    """Postselection probability, strong click marginals, weak mean/variance."""
    rho = np.outer(m.pre, m.pre.conj())
    prob = _run(m, rho, {})[None].real
    clicks = {}
    for j, p in enumerate(m.pointers):
        if p["kind"] == "strong":
            clicks[p["site"]] = _run(m, rho, {j: 1})[None].real / prob
    weak = {}
    for j, p in enumerate(m.pointers):
        if p["kind"] != "weak":
            continue
        w = _run(m, rho, {}, keep=j)
        q, ready, kicked = packets(p)
        states = (ready, kicked)
        # <b| f(x) |a> for the block (a, b) = M_a rho M_b^dagger.
        moment = lambda f: sum(w[(a, b)] * np.dot(states[b], f * states[a])
                               for a in (0, 1) for b in (0, 1)).real / prob
        mean = moment(q)
        weak[p["site"]] = (mean, moment(q**2) - mean**2)
    return {"probability": prob, "clicks": clicks, "weak": weak}


def disturbance(m: Model) -> dict:
    """site -> {pattern: |branch amplitude|^2} for sites with vanishing amplitude."""
    wv, _ = weak_values(m)
    strong_idx = [j for j, p in enumerate(m.pointers) if p["kind"] == "strong"]
    rows = {}
    for label, _, _ in m.sites:
        if abs(wv[label][0]) > m.tolerance:
            continue
        rho = np.outer(m.pre, m.pre.conj())
        branches = {}
        for bits in itertools.product((0, 1), repeat=len(strong_idx)):
            select = dict(zip(strong_idx, bits))
            pattern = tuple(m.pointers[j]["site"] for j, b in select.items() if b)
            branches[pattern] = _run(m, rho, select, insert=label)[None].real
        rows[label] = branches
    return rows
