"""The four benchmark workloads: inputs, ops, references and checks.

A workload builds its inputs from the seed (timed as set-up), then
computes a reference for every op (untimed) and hands the runner a fixed
list of ops: one pass of the workload's mix. Ops reach wvlab only
through module attributes looked up at call time, so a traced run sees
every call through its wrappers.

NOTES.md records why each workload exists and which layers it loads.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import gen


@dataclass
class Op:
    label: str
    group: str
    run: Callable[[], object]
    check: Callable[[object], list]
    counts: Callable[[object], dict] = lambda out: {}


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def _sizes(d: dict, **extra) -> dict:
    kinds = [p["kind"] for p in d.get("pointers", [])]
    out = {"dim": d["dim"], "stages": len(d["stages"]), "sites": len(d["sites"]),
           "n_strong": kinds.count("strong"), "n_weak": kinds.count("weak")}
    out.update(extra)
    return out


def _readout_counts(d: dict, rep, *, run: bool) -> dict:
    n = len(d.get("pointers", []))
    ns = sum(1 for p in d.get("pointers", []) if p["kind"] == "strong")
    extra = {"composite_len": d["dim"] * 2**n if n else 0}
    if run:
        extra.update(patterns_enumerated=2**ns, patterns_emitted=len(rep.patterns))
    return _sizes(d, **extra)


def _interleaved(ops: list) -> list:
    """Ops in a fixed mixed order, the same for every seed, so heavy and
    light ops spread over the pass and a slow spell hits every kind."""
    order = np.random.default_rng(99).permutation(len(ops))
    return [ops[int(i)] for i in order]


class Workload:
    """Base: library workloads hold Scenario objects built by from_dict."""

    name = ""

    def __init__(self, seed: int, workdir: str, root: str):
        import wvlab.runner
        import wvlab.scenario

        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.runner = wvlab.runner
        self.scenario = wvlab.scenario
        self.dicts: list[dict] = []
        self.scenarios: list = []

    def build(self) -> None:
        """Generate every input and load or write it (set-up, timed)."""
        raise NotImplementedError

    def warm(self) -> None:
        """Run one op untimed by the op clock (set-up, timed)."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        """One pass of the mix, with references computed (untimed)."""
        raise NotImplementedError

    def load_ops(self) -> list[Op]:
        """Loader calls replayed in the traced run, one root span each."""
        return [
            Op(f"load {k}", "load", lambda d=d: self.scenario.from_dict(d), lambda out: [],
               lambda out, d=d: _sizes(d, json_in_bytes=len(gen.canonical_json(d))))
            for k, d in enumerate(self.dicts)
        ]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def traced_ops(self, ops: list[Op]) -> list[Op]:
        return ops


# --- wv-timeline ----------------------------------------------------------

# (stages S, dim d, ops per pass): 100 ops, about 9 s at the seed
# commit, so in a 32 s run every op runs three or four times. Every S
# and every d appears, never S=200 with d=64. Sorted by cost, the median
# op is the 18th of the 53 S=10, d=16 reports and the p90 is the 5th of
# the 12 S=50, d=3 reports: both sit well inside a class of equal-sized
# ops, never on the edge between two classes.
WV_MIX = ((10, 3, 32), (10, 16, 53), (50, 3, 12), (10, 64, 1), (50, 16, 1), (200, 3, 1))


class WvTimeline(Workload):
    name = "wv-timeline"

    def specs(self):
        return [(s, d) for s, d, n in WV_MIX for _ in range(n)]

    def build(self):
        self.dicts, self.scenarios = [], []
        self.dicts = [gen.wv_timeline(self.seed, i, s, d) for i, (s, d) in enumerate(self.specs())]
        self.scenarios = [self.scenario.from_dict(d) for d in self.dicts]

    def warm(self):
        self.runner.run_weak_values(self.scenarios[0])

    def ops(self) -> list[Op]:
        out = []
        for (s, dim), d, sc in zip(self.specs(), self.dicts, self.scenarios):
            ref = checks.Reference(d)
            out.append(Op(
                f"S={s},d={dim}", f"S={s},d={dim}",
                lambda sc=sc: self.runner.run_weak_values(sc),
                lambda rep, ref=ref: checks.check(checks.view_of_report(rep), ref, "weak-values"),
                lambda rep, d=d: _readout_counts(d, rep, run=False),
            ))
        return _interleaved(out)


# --- strong-clicks --------------------------------------------------------

# (strong pointers N, dims d in order, ops) for each half of 50 ops. N
# sets the cost; d moves it by up to a half at N=16. Sorted by cost, the
# median op falls among the 46 N=12 ops and the p90 among the twelve
# N=16, d=4 ops (positions 87-98), well inside that class.
STRONG_MIX = ((8, (3, 4, 8), 19), (12, (3, 4, 8), 23), (16, (3, 4, 4, 4, 4, 4, 4, 8), 8))


class StrongClicks(Workload):
    name = "strong-clicks"

    def specs(self):
        out = []
        for half in ("dense", "sparse"):
            for n, dims, count in STRONG_MIX:
                out += [(half, n, dims[k % len(dims)]) for k in range(count)]
        return out

    def build(self):
        self.dicts, self.scenarios = [], []
        self.dicts = [
            (gen.strong_dense if half == "dense" else gen.strong_sparse)(self.seed, i, n, d)
            for i, (half, n, d) in enumerate(self.specs())
        ]
        self.scenarios = [self.scenario.from_dict(d) for d in self.dicts]

    def warm(self):
        self.runner.run_pointers(self.scenarios[0])

    def ops(self) -> list[Op]:
        out = []
        for (half, n, dim), d, sc in zip(self.specs(), self.dicts, self.scenarios):
            ref = checks.Reference(d, pointers=True)
            out.append(Op(
                f"{half} N={n},d={dim}", half,
                lambda sc=sc: self.runner.run_pointers(sc),
                lambda rep, ref=ref: checks.check(checks.view_of_report(rep), ref, "run"),
                lambda rep, d=d: _readout_counts(d, rep, run=True),
            ))
        return _interleaved(out)


# --- weak-disturbance -----------------------------------------------------

WEAK_SCENARIOS = 48
WEAK_BUILTINS = ("three-path-allweak", "three-path-fig2")


def weak_disturbance_spec(i: int) -> tuple[int, int, int, int]:
    """(dim, weak pointers, strong pointers, null sites) of generated scenario i."""
    return (3, 4)[i % 2], 8 + (i // 2) % 5, (i // 10) % 4, 3 + (i // 3) % 2


def _fig2_stored(view) -> list:
    """Criterion 4: patterns exactly {D}, {O,E'}, {O,F'} at 1/3 each."""
    want = {("D",), ("O", "E'"), ("O", "F'")}
    if set(view.patterns) != want or any(abs(p - 1 / 3) > 1e-10 for p in view.patterns.values()):
        return [f"fig2 patterns {view.patterns}"]
    return []


def _fig2_disturbance_stored(view) -> list:
    flags = {site: flag for site, _, flag in view.disturbance}
    return [] if flags.get("O") is True else [f"fig2 disturbance flags {flags}"]


def _allweak_stored(view) -> list:
    """Criterion 5: null sites barely move, F and F' move backwards."""
    bad = [s for s in ("O", "O'") if abs(view.weak[s][0]) > 1e-4]
    bad += [s for s in ("F", "F'") if not view.weak[s][0] < 0]
    return [f"allweak means at {bad}"] if bad else []


STORED = {
    ("three-path-fig2", "run"): _fig2_stored,
    ("three-path-fig2", "disturbance"): _fig2_disturbance_stored,
    ("three-path-allweak", "run"): _allweak_stored,
}


class WeakDisturbance(Workload):
    name = "weak-disturbance"

    def build(self):
        self.dicts, self.scenarios = [], []
        self.dicts = [gen.weak_disturbance(self.seed, i, *weak_disturbance_spec(i))
                      for i in range(WEAK_SCENARIOS)]
        self.scenarios = [self.scenario.from_dict(d) for d in self.dicts]
        self.builtins = [self.scenario.builtin(name) for name in WEAK_BUILTINS]

    def warm(self):
        self.runner.disturbance_table(self.builtins[1])

    def ops(self) -> list[Op]:
        out = []
        sources = [(f"gen{i}", d, sc) for i, (d, sc) in enumerate(zip(self.dicts, self.scenarios))]
        sources += [(name, gen.builtin_dict(name), sc)
                    for name, sc in zip(WEAK_BUILTINS, self.builtins)]
        for label, d, sc in sources:
            ref = checks.Reference(d, pointers=True, disturbance=True)
            for mode in ("run", "disturbance"):
                fn = "run_pointers" if mode == "run" else "disturbance_table"
                out.append(Op(
                    f"{label} {mode}", mode,
                    lambda sc=sc, fn=fn: getattr(self.runner, fn)(sc),
                    lambda rep, ref=ref, mode=mode, extra=STORED.get((label, mode)):
                        checks.check(checks.view_of_report(rep), ref, mode, extra),
                    lambda rep, d=d, mode=mode: _readout_counts(d, rep, run=mode == "run"),
                ))
        return _interleaved(out)


# --- cli-files ------------------------------------------------------------

CLI_SUBCOMMANDS = ("validate", "weak-values", "run", "disturbance")
CLI_FORMATS = ("text", "json")

# Stored values for built-ins (README and acceptance criteria 1 and 2).
THREE_PATH_WEAK_VALUES = {"E": 1, "F": -1, "D": 1, "O": 0, "E'": 1, "F'": -1, "O'": 0}


def _three_path_stored(view) -> list:
    got = {site: value for site, _, value in view.weak_values}
    bad = [s for s, w in THREE_PATH_WEAK_VALUES.items() if abs(got[s] - w) > 1e-10]
    return [f"three-path weak values at {bad}"] if bad else []


def _fig1_stored(view) -> list:
    ok = abs(view.clicks["D"] - 1.0) <= 1e-10 and abs(view.clicks["O"]) <= 1e-10
    return [] if ok else [f"fig1 clicks {view.clicks}"]


CLI_STORED = {
    ("three-path", "weak-values"): _three_path_stored,
    ("three-path-fig1", "run"): _fig1_stored,
    **STORED,
}

# Light ops repeated after the distinct list so a pass holds 100 ops.
CLI_PASS = 100

# `weak-values --format json` runs on the saved S=30, d=16 timeline in a
# pass: a class of ops about twice as long as the light ones, so the p90
# (10 ops beyond it) reads the fast end of that class instead of the slow
# tail of single light start-ups. Text is left out: its fixed-width
# columns run the sum-rule labels b25_10 to b25_15 into their stage.
CLI_TIMELINE_RUNS = 12


def _cli_counts(res: CliResult, sizes: dict, fmt: str) -> dict:
    out = dict(sizes)
    if fmt == "json":
        out["json_out_bytes"] = len(res.stdout.encode())
    if "patterns_enumerated" in sizes:
        out["patterns_emitted"] = len(checks.view_of_output(res.stdout, fmt).patterns)
    return out


class CliFiles(Workload):
    name = "cli-files"

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        import wvlab.cli

        self.cli = wvlab.cli
        self.env = dict(os.environ, PYTHONPATH="src")
        self.paths = {
            "big": os.path.join(workdir, "timeline-d64.json"),
            "mid": os.path.join(workdir, "pointers-d16.json"),
            "timeline": os.path.join(workdir, "timeline-d16.json"),
            **{k: os.path.join(workdir, f"reject-{k}.json") for k in gen.REJECT_KINDS},
        }

    def build(self):
        self.inputs = {
            "big": gen.wv_timeline(self.seed, 0, 50, 64),
            "mid": gen.weak_disturbance(self.seed, 0, 16, 2, 2, 2),
            "timeline": gen.wv_timeline(self.seed, 1, 30, 16),
        }
        for key in ("big", "mid", "timeline"):
            self.scenario.save(self.scenario.from_dict(self.inputs[key]), self.paths[key])
        for kind in gen.REJECT_KINDS:
            with open(self.paths[kind], "w", encoding="utf-8") as fh:
                json.dump(gen.rejected(kind, self.seed), fh, indent=2)

    def warm(self):
        self.child(["validate"])

    def load_ops(self):
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def child(self, argv: list[str]) -> CliResult:
        proc = subprocess.run([sys.executable, "-m", "wvlab.cli", *argv], cwd=self.root,
                              env=self.env, capture_output=True, text=True, timeout=170)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def replay(self, argv: list[str]) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    def _plan(self):
        """(argv, check, sizes) for each op of one pass."""
        plan = []

        def add(source, d, ref, subs, name):
            n_ptr = len(d.get("pointers", []))
            in_bytes = os.path.getsize(source) if not source.startswith("builtin:") else 0
            for sub in subs:
                sizes = _sizes(d, json_in_bytes=in_bytes)
                if sub in ("run", "disturbance") and n_ptr:
                    sizes["composite_len"] = d["dim"] * 2**n_ptr
                if sub == "run":
                    sizes["patterns_enumerated"] = 2 ** sizes["n_strong"]
                for fmt in CLI_FORMATS:
                    argv = [sub, "--scenario", source, "--format", fmt]
                    extra = CLI_STORED.get((name, sub))
                    plan.append((argv, self._ok_check(sub, fmt, ref, n_ptr, extra), sizes))

        for name in gen.BUILTINS:
            d = gen.builtin_dict(name)
            ref = checks.Reference(d, pointers=bool(d["pointers"]), disturbance=True)
            subs = [s for s in CLI_SUBCOMMANDS if d["pointers"] or s != "run"]
            add(f"builtin:{name}", d, ref, subs, name)
        mid = self.inputs["mid"]
        add(self.paths["mid"], mid, checks.Reference(mid, pointers=True, disturbance=True),
            CLI_SUBCOMMANDS, "mid")
        for kind in gen.REJECT_KINDS:
            for sub, fmt in (("validate", "text"), ("weak-values", "json")):
                argv = [sub, "--scenario", self.paths[kind], "--format", fmt]
                plan.append((argv, self._reject_check(kind),
                             {"json_in_bytes": os.path.getsize(self.paths[kind])}))
        big = self.inputs["big"]
        big_ref = checks.Reference(big)
        for fmt in CLI_FORMATS:
            argv = ["validate", "--scenario", self.paths["big"], "--format", fmt]
            plan.append((argv, self._ok_check("validate", fmt, big_ref, 0, None),
                         _sizes(big, json_in_bytes=os.path.getsize(self.paths["big"]))))
        light = [p for p in plan if p[0][2] != self.paths["big"]]
        timeline = self.inputs["timeline"]
        argv = ["weak-values", "--scenario", self.paths["timeline"], "--format", "json"]
        plan += [(argv, self._ok_check("weak-values", "json", checks.Reference(timeline), 0, None),
                  _sizes(timeline, json_in_bytes=os.path.getsize(self.paths["timeline"])))
                 ] * CLI_TIMELINE_RUNS
        plan += light[: CLI_PASS - len(plan)]
        return plan

    @staticmethod
    def _ok_check(sub, fmt, ref, n_ptr, extra):
        def check(res: CliResult) -> list:
            if res.code != 0:
                return [f"exit {res.code}, expected 0: {res.stderr[-300:]}"]
            if sub == "validate":
                return checks.check_validate(res.stdout, fmt, ref, n_ptr)
            return checks.check(checks.view_of_output(res.stdout, fmt), ref, sub, extra)
        return check

    @staticmethod
    def _reject_check(kind):
        def check(res: CliResult) -> list:
            # README: validation failures exit 2 and name their code.
            if res.code != 2 or f"[{kind}]" not in res.stderr:
                return [f"exit {res.code}, expected 2 with [{kind}]: {res.stderr[-300:]}"]
            return []
        return check

    def _ops(self, run) -> list[Op]:
        out = []
        for argv, check, sizes in self._plan():
            label = " ".join(argv).replace(self.workdir + os.sep, "")
            out.append(Op(label, argv[0], lambda argv=argv: run(argv), check,
                          lambda res, sizes=sizes, fmt=argv[-1]: _cli_counts(res, sizes, fmt)))
        return _interleaved(out)

    def ops(self) -> list[Op]:
        return self._ops(self.child)

    def traced_ops(self, ops):
        return self._ops(self.replay)


WORKLOADS = {w.name: w for w in (WvTimeline, StrongClicks, WeakDisturbance, CliFiles)}
