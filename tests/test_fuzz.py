"""Seeded mutation fuzzer over the scenario file format.

Every built-in is written out with to_dict, mutated one step at a time
(delete a key, add an unknown key, wrong type, NaN/Inf/huge/negative
number, empty list) and loaded again. A mutant must either load or
raise a ScenarioError carrying one of the stable codes; a mutant that
loads must run to a report with finite numbers only.
"""

from __future__ import annotations

import copy
import json
import math
import random

import pytest

from wvlab import errors
from wvlab.errors import ScenarioError
from wvlab.runner import report_to_dict, run_pointers, run_weak_values
from wvlab.scenario import BUILTIN_NAMES, builtin, from_dict, three_path_rank2_crossing, to_dict

CODES = {
    errors.SCHEMA,
    errors.NON_UNITARY_SEGMENT,
    errors.NON_PROJECTOR_SITE,
    errors.UNKNOWN_SITE,
    errors.UNKNOWN_STAGE,
    errors.NON_NORMALIZED_STATE,
}

BAD_NUMBERS = (math.nan, math.inf, -math.inf, 1e300, -1e300, 10**9 + 1, 10**400, -1, -0.5, 0)
WRONG_TYPES = ("x", None, True, {}, [], 1.5, [1, 2, 3])
MUTANTS_PER_SEED = 120


def _paths(node, path=()):
    """Every (path, value) below node, containers included."""
    yield path, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


def _parent(d, path):
    for key in path[:-1]:
        d = d[key]
    return d


def _mutate(d: dict, rng: random.Random) -> dict:
    d = copy.deepcopy(d)
    paths = [p for p, _ in _paths(d) if p]
    kind = rng.choice(("delete", "unknown", "type", "number", "empty"))
    if kind == "delete":
        path = rng.choice([p for p in paths if isinstance(_parent(d, p), dict)])
        del _parent(d, path)[path[-1]]
    elif kind == "unknown":
        dicts = [()] + [p for p, v in _paths(d) if p and isinstance(v, dict)]
        target = _parent(d, rng.choice(dicts) + (None,))
        target["unexpected"] = 1
    elif kind == "type":
        path = rng.choice(paths)
        _parent(d, path)[path[-1]] = rng.choice(WRONG_TYPES)
    elif kind == "number":
        numeric = [p for p, v in _paths(d) if p and isinstance(v, (int, float))
                   and not isinstance(v, bool)]
        path = rng.choice(numeric)
        _parent(d, path)[path[-1]] = rng.choice(BAD_NUMBERS)
    else:
        path = rng.choice([p for p, v in _paths(d) if p and isinstance(v, list)])
        _parent(d, path)[path[-1]] = []
    return d


def _sources():
    out = [to_dict(builtin(name)) for name in BUILTIN_NAMES]
    out.append(to_dict(three_path_rank2_crossing()))
    return out


def _run(sc) -> list:
    reports = [run_weak_values(sc)]
    if sc.pointers:
        reports.append(run_pointers(sc))
    return reports


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(4))
def test_mutants_load_or_raise_coded_errors(seed):
    rng = random.Random(seed)
    sources = _sources()
    loaded = rejected = 0
    for _ in range(MUTANTS_PER_SEED):
        mutant = _mutate(rng.choice(sources), rng)
        try:
            sc = from_dict(mutant)
        except ScenarioError as exc:
            assert exc.code in CODES, (exc.code, mutant)
            rejected += 1
            continue
        loaded += 1
        for report in _run(sc):
            # allow_nan=False fails on NaN or +-Inf anywhere in the report.
            json.dumps(report_to_dict(report), allow_nan=False)
    assert loaded and rejected
