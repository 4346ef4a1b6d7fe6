"""Output checks: every op's result against its independent reference.

Results arrive in three shapes: a RunReport object (library ops), the
report's JSON form, and the text rendering (CLI ops). Each is reduced to
a View, and one function compares a View with a Reference. A check
returns a list of problems; an empty list means the op is correct.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import gen
import oracle

# Absolute tolerance, scaled by max(1, |reference|).
TOL = 1e-9

# Reports omit click patterns at or below this probability (wvlab's
# documented report floor), so pattern sums may miss up to this much per
# omitted pattern.
PATTERN_FLOOR = 1e-12


@dataclass
class View:
    checksum: str | None = None
    dim: int | None = None
    weak_values: list = field(default_factory=list)  # (site, numerator, value)
    sum_rules: list = field(default_factory=list)  # totals
    probability: float | None = None
    clicks: dict = field(default_factory=dict)
    patterns: dict = field(default_factory=dict)  # tuple of sites -> probability
    weak: dict = field(default_factory=dict)  # site -> (mean, variance)
    disturbance: list = field(default_factory=list)  # (site, {pattern: |amp|}, flag)


class Reference:
    """Everything the checks compare against, computed from the scenario dict."""

    def __init__(self, d: dict, pointers: bool = False, disturbance: bool = False):
        m = oracle.Model(d)
        self.checksum = gen.checksum(d)
        self.dim = m.dim
        self.stages = list(m.stages)
        self.site_order = [label for label, _, _ in m.sites]
        self.wv, self.den = oracle.weak_values(m)
        self.sum_rules = oracle.sum_rules(m, self.wv)
        self.run = oracle.pointer_run(m) if pointers else None
        self.dist = oracle.disturbance(m) if disturbance else None
        self.n_strong = len(m.strong)


def close(a, b, tol: float = TOL) -> bool:
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(b)))


def check(view: View, ref: Reference, mode: str, extra=None) -> list[str]:
    """Compare a report view with its reference.

    mode is "weak-values", "run" or "disturbance", the analysis that
    produced the report. extra is an optional callable adding checks
    against values stored with a workload definition.
    """
    bad = []
    if view.checksum != ref.checksum:
        bad.append(f"checksum {view.checksum} != {ref.checksum}")
    if view.dim is not None and view.dim != ref.dim:
        bad.append(f"dim {view.dim} != {ref.dim}")
    if [row[0] for row in view.weak_values] != ref.site_order:
        bad.append("weak value rows do not list the scenario's sites in order")
    else:
        for site, num, value in view.weak_values:
            rnum, rval = ref.wv[site]
            if (num is not None and not close(num, rnum)) or value is None or not close(value, rval):
                bad.append(f"weak value at {site}: {value} != {rval}")
    if len(view.sum_rules) != len(ref.sum_rules):
        bad.append(f"{len(view.sum_rules)} sum rules, expected {len(ref.sum_rules)}")
    else:
        for total, rtotal in zip(view.sum_rules, ref.sum_rules):
            if not close(total, rtotal) or not close(total, 1.0):
                bad.append(f"sum rule total {total} != {rtotal}")

    if mode == "run":
        bad += _check_run(view, ref)
    else:
        if view.probability is not None and not close(view.probability, abs(ref.den) ** 2):
            bad.append(f"postselection probability {view.probability} != {abs(ref.den) ** 2}")
        if view.clicks or view.patterns or view.weak:
            bad.append(f"{mode} report carries pointer readout")
    if mode == "disturbance":
        bad += _check_disturbance(view, ref)
    elif view.disturbance:
        bad.append(f"{mode} report carries a disturbance table")
    if extra is not None and not bad:
        bad += extra(view)
    return bad


def _check_run(view: View, ref: Reference) -> list[str]:
    bad = []
    run = ref.run
    if view.probability is None or not close(view.probability, run["probability"]):
        bad.append(f"postselection probability {view.probability} != {run['probability']}")
    if set(view.clicks) != set(run["clicks"]):
        bad.append("click sites differ from the strong pointers")
    else:
        for site, p in run["clicks"].items():
            if not close(view.clicks[site], p):
                bad.append(f"click probability at {site}: {view.clicks[site]} != {p}")
    if set(view.weak) != set(run["weak"]):
        bad.append("weak statistics sites differ from the weak pointers")
    else:
        for site, (mean, var) in run["weak"].items():
            vm, vv = view.weak[site]
            if not close(vm, mean) or not close(vv, var):
                bad.append(f"weak stats at {site}: ({vm}, {vv}) != ({mean}, {var})")
    omitted = 2 ** ref.n_strong - len(view.patterns)
    slack = TOL + max(omitted, 0) * PATTERN_FLOOR
    total = 0.0
    marginal = dict.fromkeys(run["clicks"], 0.0)
    for pattern, p in view.patterns.items():
        total += p
        for site in pattern:
            if site not in marginal:
                bad.append(f"pattern {pattern} names a site without a strong pointer")
                return bad
            marginal[site] += p
    if abs(total - 1.0) > slack:
        bad.append(f"patterns sum to {total}")
    for site, p in marginal.items():
        if abs(p - view.clicks.get(site, float("nan"))) > slack:
            bad.append(f"pattern marginal at {site}: {p} != click {view.clicks.get(site)}")
    return bad


# Oracle branch probabilities carry rounding of about 1e-16, so their
# square roots cannot place an amplitude against a 1e-10 tolerance near
# zero. Below ZERO_PROB a branch certainly vanishes; above LIVE_PROB its
# amplitude (>= 1e-6) certainly survives. In between, presence is not
# checked; generated scenarios keep clear of that band.
ZERO_PROB = 1e-14
LIVE_PROB = 1e-12


def _check_disturbance(view: View, ref: Reference) -> list[str]:
    bad = []
    rows = {site: (branches, flag) for site, branches, flag in view.disturbance}
    if list(rows) != [s for s in ref.site_order if s in ref.dist]:
        return [f"disturbance rows {list(rows)} != {list(ref.dist)}"]
    for site, branches in ref.dist.items():
        got, flag = rows[site]
        live = {pat for pat, p in branches.items() if p > LIVE_PROB}
        zero = {pat for pat, p in branches.items() if p < ZERO_PROB}
        if (live and not flag) or (len(zero) == len(branches) and flag):
            bad.append(f"disturbance flag at {site}: {flag}, reference {branches}")
        if live - set(got) or zero & set(got):
            bad.append(f"branches at {site}: {sorted(got)}, reference {branches}")
        for pat, amp in got.items():
            if pat not in branches or not close(amp**2, branches[pat]):
                bad.append(f"branch {pat} at {site}: |amp|^2 {amp**2} != {branches.get(pat)}")
    return bad


# --- views ----------------------------------------------------------------


def view_of_report(rep) -> View:
    return View(
        checksum=rep.checksum,
        dim=rep.dim,
        weak_values=[(r.site, r.numerator, r.value) for r in rep.weak_values],
        sum_rules=[r.total for r in rep.sum_rules],
        probability=rep.postselection_probability,
        clicks=dict(rep.clicks),
        patterns=dict(rep.patterns),
        weak={s: (st.mean, st.variance) for s, st in rep.weak_stats.items()},
        disturbance=[(r.site, {p: abs(a) for p, a in r.branches.items()}, r.disturbed)
                     for r in rep.disturbance],
    )


def _pair(p):
    return None if p is None else complex(p[0], p[1])


def _pattern(key: str) -> tuple:
    return tuple(key.split("+")) if key else ()


def view_of_json(text: str) -> View:
    d = json.loads(text)
    return View(
        checksum=d["scenario"]["checksum"],
        dim=d["scenario"]["dim"],
        weak_values=[(r["site"], _pair(r["numerator"]), _pair(r["value"]))
                     for r in d["weak_values"]["table"]],
        sum_rules=[_pair(r["total"]) for r in d["weak_values"]["sum_rules"]],
        probability=d["postselection_probability"],
        clicks=dict(d["clicks"]),
        patterns={_pattern(k): v for k, v in d["patterns"].items()},
        weak={s: (st["mean"], st["variance"]) for s, st in d["weak_stats"].items()},
        disturbance=[(r["site"], {_pattern(k): abs(_pair(a)) for k, a in r["branches"].items()},
                      r["disturbed"]) for r in d["disturbance"]],
    )


_NUMBER = r"(?:\d+(?:\.\d*)?(?:e[+-]\d+)?|inf|nan)"
_COMPLEX = re.compile(rf"([+-]?{_NUMBER})([+-]{_NUMBER})i")


def parse_complex(s: str) -> complex:
    m = _COMPLEX.fullmatch(s)
    if m is None:
        raise ValueError(f"not a rendered complex number: {s!r}")
    return complex(float(m.group(1)), float(m.group(2)))


def _complexes(s: str) -> list:
    """Every rendered complex number in s; padded columns may touch."""
    return [complex(float(a), float(b)) for a, b in _COMPLEX.findall(s)]


_SECTIONS = {
    "weak values:": "wv",
    "sum rules:": "rules",
    "click probabilities:": "clicks",
    "click patterns (model-derived probabilities):": "patterns",
    "weak pointer statistics:": "weak",
    "disturbance table:": "dist",
}


def view_of_text(text: str) -> View:
    """Parse `wvlab` text output for weak-values, run and disturbance."""
    v = View()
    section = None
    for line in text.splitlines():
        if not line.startswith("  "):
            section = _SECTIONS.get(line)
            if line.startswith("checksum: "):
                v.checksum = line[len("checksum: "):]
            elif line.startswith("scenario: dim "):
                v.dim = int(line.split()[2].rstrip(","))
            elif line.startswith("postselection probability: "):
                v.probability = float(line.split(": ", 1)[1])
            continue
        body = line.strip()
        parts = body.split()
        if section == "wv" and parts[:2] != ["site", "stage"]:
            site, _, rest = body.split(None, 2)
            nums = _complexes(rest)
            if rest.startswith("undefined"):
                nums = [None] + nums
            value, num, _ = nums
            v.weak_values.append((site, num, value))
        elif section == "rules":
            v.sum_rules.append(parse_complex(body.rsplit("-> ", 1)[1]))
        elif section == "clicks":
            v.clicks[parts[0]] = float(parts[1])
        elif section == "patterns":
            v.patterns[() if parts[0] == "(none)" else tuple(parts[0].split("+"))] = float(parts[1])
        elif section == "weak" and parts[:2] != ["site", "mean"]:
            v.weak[parts[0]] = (float(parts[1]), float(parts[2]))
        elif section == "dist":
            if line.startswith("    branch "):
                name, amp = body[len("branch "):].rsplit(": ", 1)
                pattern = () if name == "(none)" else tuple(name.split("+"))
                v.disturbance[-1][1][pattern] = abs(parse_complex(amp))
            else:
                head, flag = body.rsplit(", ", 1)
                v.disturbance.append((head.split(" @ ", 1)[0], {}, flag == "disturbed"))
    return v


def view_of_output(text: str, fmt: str) -> View:
    return view_of_json(text) if fmt == "json" else view_of_text(text)


def check_validate(text: str, fmt: str, ref: Reference, n_pointers: int) -> list[str]:
    n_sites = len(ref.site_order)
    if fmt == "json":
        want = {"ok": True, "checksum": ref.checksum, "dim": ref.dim, "stages": ref.stages,
                "sites": ref.site_order, "pointers": n_pointers}
        got = json.loads(text)
        return [] if got == want else [f"validate payload {got} != {want}"]
    want = (f"OK: dim {ref.dim}, {len(ref.stages)} stages, {n_sites} sites, "
            f"{n_pointers} pointers\n")
    return [] if text == want else [f"validate text {text!r} != {want!r}"]
