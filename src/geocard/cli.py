"""Command-line front end.

    geocard validate [PATH ...]          check cards (default: bundled catalog)
    geocard eval CARD VARIANT --in k=v   evaluate a card, print trace or report
    geocard ec7 check|design ...         Eurocode 7 footing workflows
    geocard serve                        run the MCP server on stdio

Exit codes: 0 success, 1 domain error, 2 usage error. Human output goes to
stdout, diagnostics to stderr; a character stdout cannot encode is written
as a backslash escape.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .catalog import Catalog, default_catalog
from .engine import SPLICE, EvaluationRequest, evaluate_card, splice_json
from .errors import GeocardError
from .units import DATA_DIR

# ec7, report and server are imported by the commands that use them, so
# that validate and eval load neither the EC7 workflow, the skills nor
# the MCP server.


def main(argv=None) -> int:
    # Echoed card text can hold characters stdout cannot encode (say, a
    # '³' on an ASCII stream); write them as backslash escapes, as Python
    # does on stderr, instead of dying mid-output.
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except GeocardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geocard",
        description="Declarative geotechnical method cards: validate, "
                    "evaluate, run Eurocode 7 designs, serve MCP tools.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p_validate = sub.add_parser(
        "validate", help="load and dimension-check method cards")
    p_validate.add_argument("paths", nargs="*",
                            help="card files or directories (default: bundled catalog)")
    p_validate.set_defaults(func=cmd_validate)

    p_eval = sub.add_parser("eval", help="evaluate a method card variant")
    p_eval.add_argument("card", help="card id, e.g. BEARING_CAPACITY_TERZAGHI")
    p_eval.add_argument("variant", help="variant id")
    p_eval.add_argument("--in", dest="inputs", action="append", default=[],
                        metavar="KEY=VALUE",
                        help='input, unit-tagged: --in "phi_prime=30 deg"')
    p_eval.add_argument("--override", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a param default")
    p_eval.add_argument("--format", choices=("json", "report"), default="report")
    p_eval.set_defaults(func=cmd_eval)

    p_ec7 = sub.add_parser("ec7", help="Eurocode 7 footing workflows")
    ec7_sub = p_ec7.add_subparsers(dest="ec7_command")
    p_check = ec7_sub.add_parser("check", help="ULS check at a given width")
    p_check.add_argument("--scenario", required=True, help="scenario JSON file")
    p_check.add_argument("--da", required=True,
                         help="design approach label, or 'all'")
    p_check.add_argument("--B", required=True, type=float, help="width in metres")
    p_check.add_argument("--drainage", choices=("drained", "undrained"),
                         default="drained")
    p_check.add_argument("--format", choices=("json", "summary"), default="summary")
    p_check.set_defaults(func=cmd_ec7_check)
    p_design = ec7_sub.add_parser("design", help="search the required width")
    p_design.add_argument("--scenario", required=True, help="scenario JSON file")
    p_design.add_argument("--da", required=True,
                          help="design approach label, or 'all'")
    p_design.add_argument("--tolerance", type=float, default=1e-3)
    p_design.add_argument("--drainage", choices=("drained", "undrained"),
                          default="drained")
    p_design.add_argument("--format", choices=("json", "summary"), default="summary")
    p_design.set_defaults(func=cmd_ec7_design)
    p_ec7.set_defaults(func=lambda args: (p_ec7.print_help(), 2)[1])

    p_serve = sub.add_parser("serve", help="run the MCP server on stdio")
    p_serve.set_defaults(func=cmd_serve)
    return parser


# ----------------------------------------------------------------- validate ----

def cmd_validate(args) -> int:
    paths = []
    for raw in args.paths or [DATA_DIR / "catalog"]:
        path = Path(raw)
        if path.is_dir():
            paths.extend(sorted(path.glob("*.json")))
        elif path.is_file():
            paths.append(path)
        else:
            print(f"usage error: no such file or directory: {raw}",
                  file=sys.stderr)
            return 2

    catalog = Catalog()
    failures = 0
    for path in paths:
        reported = len(catalog.diagnostics)
        card = catalog._ingest(path, path.name)
        if card is None:
            for diagnostic in catalog.diagnostics[reported:]:
                print(f"FAIL {diagnostic}")
            failures += 1
        else:
            print(f"ok   {path.name}: {card.id}")
    if failures:
        print(f"{failures} of {len(paths)} card file(s) failed validation",
              file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------- eval ----

def _parse_kv(pairs: list[str], label: str) -> "dict | None":
    """The KEY=VALUE pairs as a dict, or None after a usage error."""
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key.strip():
            print(f"usage error: {label} must be KEY=VALUE, got {pair!r}",
                  file=sys.stderr)
            return None
        out[key.strip()] = value.strip()
    return out


def cmd_eval(args) -> int:
    inputs = _parse_kv(args.inputs, "--in")
    overrides = _parse_kv(args.overrides, "--override")
    if inputs is None or overrides is None:
        return 2
    card = default_catalog().get_method(args.card)
    request = EvaluationRequest(card_id=args.card, variant_id=args.variant,
                                inputs=inputs, overrides=overrides)
    trace = evaluate_card(card, request)
    if args.format == "json":
        print(trace.to_json())
    else:
        from .report import render_report
        print(render_report(trace, card))
    return 0


# ---------------------------------------------------------------------- ec7 ----

def _load_scenario_file(path_text: str):
    from .ec7 import load_scenario

    path = Path(path_text)
    if not path.is_file():
        print(f"usage error: no such scenario file: {path_text}", file=sys.stderr)
        return None
    try:
        text = path.read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GeocardError(f"cannot read scenario file {path_text}: {exc}") from None
    return load_scenario(text)


def _da_list(label: str) -> list[str]:
    from .ec7 import DESIGN_APPROACHES

    if label == "all":
        return list(DESIGN_APPROACHES)
    return [label]


def _print_json(results) -> int:
    """Print the results as strict_json of their to_dict() list, each
    written by its to_json; a NaN or infinity is a domain error."""
    print(splice_json([SPLICE] * len(results), *(r.to_json() for r in results)))
    return 0


def cmd_ec7_check(args) -> int:
    from .ec7 import check_footing_uls_ec7
    from .report import format_sig

    scenario = _load_scenario_file(args.scenario)
    if scenario is None:
        return 2
    results = [
        check_footing_uls_ec7(scenario, da, args.B, drainage=args.drainage)
        for da in _da_list(args.da)
    ]
    if args.format == "json":
        return _print_json(results)
    print(f"ULS bearing check at B = {format_sig(args.B)} m "
          f"({args.drainage})")
    print(f"{'DA':8s} {'V_d (kN)':>12s} {'R_d (kN)':>12s} "
          f"{'utilization':>12s}  result")
    for r in results:
        util = ("inf" if math.isinf(r.utilization)
                else f"{r.utilization:.3f}")
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{r.design_approach:8s} {r.V_d:12.2f} {r.R_d:12.2f} "
              f"{util:>12s}  {verdict}")
    return 0


def cmd_ec7_design(args) -> int:
    from .ec7 import design_footing_width_ec7

    scenario = _load_scenario_file(args.scenario)
    if scenario is None:
        return 2
    results = [
        design_footing_width_ec7(scenario, da, tolerance=args.tolerance,
                                 drainage=args.drainage)
        for da in _da_list(args.da)
    ]
    if args.format == "json":
        return _print_json(results)
    print(f"Required footing width ({args.drainage})")
    print(f"{'DA':8s} {'B_req (m)':>10s} {'V_d (kN)':>12s} {'R_d (kN)':>12s} "
          f"{'utilization':>12s}")
    for r in results:
        print(f"{r.design_approach:8s} {r.B_req:10.3f} {r.check.V_d:12.2f} "
              f"{r.check.R_d:12.2f} {r.check.utilization:12.3f}")
    if args.da == "all":
        governing = max(results, key=lambda r: r.B_req)
        print(f"governing: {governing.design_approach} "
              f"(B = {governing.B_req:.3f} m)")
    return 0


# -------------------------------------------------------------------- serve ----

def cmd_serve(args) -> int:
    from .server import serve

    serve()
    return 0


if __name__ == "__main__":
    sys.exit(main())
