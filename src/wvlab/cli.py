"""Command-line front end.

Subcommands: weak-values, run, disturbance, validate, export-default.
Scenario sources are "builtin:NAME" or a file path. Exit codes: 0 ok,
1 I/O error, 2 validation failure, 3 degenerate postselection, with
the report printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import scenario as scen
from .errors import SCHEMA, ScenarioError, WvlabError
from .qcore import DISPLAY_FLOOR
from .runner import (
    PATTERN_SEP,
    RunReport,
    disturbance_table,
    report_to_dict,
    run_pointers,
    run_weak_values,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3

TOLERANCE_ENV = "WVLAB_TOLERANCE"


def format_complex(z: complex) -> str:
    """Render re+imi with 12 significant digits, e.g. 1+0i, -1+0i."""
    re = float(z.real) + 0.0
    im = float(z.imag) + 0.0
    if abs(re) < DISPLAY_FLOOR:
        re = 0.0
    if abs(im) < DISPLAY_FLOOR:
        im = 0.0
    return f"{re:.12g}{im:+.12g}i"


def _fnum(x: float) -> str:
    return f"{float(x) + 0.0:.12g}"


def _pattern_name(pattern: tuple[str, ...]) -> str:
    return PATTERN_SEP.join(pattern) if pattern else scen.NO_CLICKS


def _columns(*cells: tuple[str, int]) -> str:
    """Left-aligned (text, width) cells; a cell that fills its width
    still gets one space, so fields never run together."""
    return "".join(f"{text:<{width - 1}} " for text, width in cells)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wvlab",
        description="Weak values, transition amplitudes and pointer simulation "
        "for pre/postselected systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def analysis(name: str, help_text: str):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument(
            "--scenario",
            default="builtin:three-path",
            help="builtin:NAME or a scenario file path (default builtin:three-path)",
        )
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--tolerance", type=float, default=None, help="tolerance override")
        sp.add_argument("--g", type=float, default=None, help="weak coupling strength override")
        sp.add_argument("--out", default=None, help="write output to this path instead of stdout")
        return sp

    analysis("weak-values", "weak value table for every declared site")
    analysis("run", "couple the scenario's pointers and read out clicks/statistics")
    analysis("disturbance", "branch analysis of sites with vanishing amplitudes")
    analysis("validate", "load a scenario and check every invariant")
    exp = sub.add_parser("export-default", help="write the built-in default scenario file")
    exp.add_argument("--out", default=None, help="write to this path instead of stdout")
    return parser


def _emit(text: str, out: str | None, code: int = EXIT_OK) -> int:
    """Write text to out (stdout when None) and return code, or EXIT_IO if writing fails."""
    try:
        if out is None:
            sys.stdout.write(text)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


def _tolerance_override(args) -> float | None:
    if args.tolerance is not None:
        return args.tolerance
    raw = os.environ.get(TOLERANCE_ENV)
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(SCHEMA, f"{TOLERANCE_ENV} must hold a number, got {raw!r}") from None


def _render_weak_values(report: RunReport, lines: list) -> None:
    lines.append("weak values:")
    widths = (6, 7, 22, 22, 22)
    header = ("site", "stage", "value", "numerator", "denominator")
    lines.append("  " + _columns(*zip(header, widths)))
    for row in report.weak_values:
        value = "undefined" if row.value is None else format_complex(row.value)
        numbers = (value, format_complex(row.numerator), format_complex(row.denominator))
        lines.append("  " + _columns(*zip((row.site, row.stage) + numbers, widths)))
    if report.sum_rules:
        lines.append("sum rules:")
        for rule in report.sum_rules:
            lines.append(
                f"  {PATTERN_SEP.join(rule.sites)} @ {rule.stage} -> {format_complex(rule.total)}"
            )


def render_text(report: RunReport) -> str:
    lines = []
    lines.append(f"scenario: dim {report.dim}, stages {' '.join(report.scenario.timeline.stages)}")
    lines.append(f"checksum: {report.checksum}")
    lines.append(f"tolerance: {_fnum(report.scenario.tolerance)}")
    prob = report.postselection_probability
    if report.degenerate and prob < DISPLAY_FLOOR**2:
        prob = 0.0
    lines.append(f"postselection probability: {_fnum(prob)}")
    if report.degenerate:
        lines.append("degenerate postselection: conditional statistics unavailable")
    _render_weak_values(report, lines)
    if report.coupling_order:
        lines.append(f"coupling order: {', '.join(report.coupling_order)}")
    if report.clicks:
        lines.append("click probabilities:")
        for site, p in report.clicks.items():
            lines.append(f"  {_columns((site, 6))}{_fnum(p)}")
    if report.patterns:
        lines.append("click patterns (model-derived probabilities):")
        for pattern, p in report.patterns.items():
            lines.append(f"  {_columns((_pattern_name(pattern), 12))}{_fnum(p)}")
    if report.weak_stats:
        lines.append("weak pointer statistics:")
        lines.append(f"  {_columns(('site', 6), ('mean', 24), ('variance', 24))}")
        for site, st in report.weak_stats.items():
            lines.append(f"  {_columns((site, 6), (_fnum(st.mean), 24), (_fnum(st.variance), 24))}")
    if report.disturbance:
        lines.append("disturbance table:")
        for row in report.disturbance:
            flag = "disturbed" if row.disturbed else "undisturbed"
            lines.append(
                f"  {row.site} @ {row.stage}: amplitude {format_complex(row.undisturbed)}, {flag}"
            )
            for pattern, amp in row.branches.items():
                lines.append(f"    branch {_pattern_name(pattern)}: {format_complex(amp)}")
    return "\n".join(lines) + "\n"


def _run_analysis(args) -> int:
    try:
        sc = scen.resolve(args.scenario)
        sc = sc.with_overrides(tolerance=_tolerance_override(args), g=args.g)
        if args.command == "validate":
            if args.format == "json":
                payload = {
                    "ok": True,
                    "checksum": sc.checksum,
                    "dim": sc.dim,
                    "stages": list(sc.timeline.stages),
                    "sites": [s.label for s in sc.sites],
                    "pointers": len(sc.pointers),
                }
                text = json.dumps(payload, indent=2) + "\n"
            else:
                text = (
                    f"OK: dim {sc.dim}, {len(sc.timeline.stages)} stages, "
                    f"{len(sc.sites)} sites, {len(sc.pointers)} pointers\n"
                )
            return _emit(text, args.out)
        if args.command == "weak-values":
            report = run_weak_values(sc)
        elif args.command == "run":
            report = run_pointers(sc)
        else:
            report = disturbance_table(sc)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_IO
    except ScenarioError as exc:
        print(f"validation error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except WvlabError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.format == "json":
        text = json.dumps(report_to_dict(report), indent=2) + "\n"
    else:
        text = render_text(report)
    return _emit(text, args.out, EXIT_DEGENERATE if report.degenerate else EXIT_OK)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "export-default":
        return _emit(scen.dumps(scen.builtin("three-path")) + "\n", args.out)
    return _run_analysis(args)


if __name__ == "__main__":
    sys.exit(main())
