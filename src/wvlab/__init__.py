"""Simulation of pre- and post-selected quantum systems.

The library computes transition amplitudes and weak values of
projectors along a timeline of unitary segments, simulates strong and
weak von Neumann measurement pointers coupled to those projectors, and
analyzes how pointer back-action disturbs the interference
cancellations behind vanishing amplitudes. A built-in three-path
interferometer family exercises every capability; scenarios also load
from JSON files and run through the `wvlab` command-line tool.

The top level holds the entry points of the quick start and the demos.
Lower-level pieces live in their submodules: `wvlab.qcore` (labeled
kets and operators), `wvlab.twosv` (timelines, two-state evolution),
`wvlab.pointer` (composite system+pointer states), `wvlab.runner`
(reports) and `wvlab.scenario` (scenario files).
"""

from .errors import ScenarioError, WvlabError
from .pointer import PointerSpec
from .runner import disturbance_rows, run_pointers, run_weak_values
from .scenario import (
    Scenario,
    builtin,
    default_three_path,
    load,
    save,
    three_path_rank2_crossing,
)
from .twosv import transition_amplitude, weak_value

__version__ = "0.1.0"

__all__ = [
    "PointerSpec",
    "Scenario",
    "ScenarioError",
    "WvlabError",
    "builtin",
    "default_three_path",
    "disturbance_rows",
    "load",
    "run_pointers",
    "run_weak_values",
    "save",
    "three_path_rank2_crossing",
    "transition_amplitude",
    "weak_value",
]
