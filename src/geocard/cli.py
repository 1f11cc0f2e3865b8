"""Command-line front end.

    geocard validate [PATH ...]          check cards (default: bundled catalog)
    geocard eval CARD VARIANT --in k=v   evaluate a card, print trace or report
    geocard ec7 check|design ...         Eurocode 7 footing workflows
    geocard serve                        run the MCP server on stdio

Exit codes: 0 success, 1 domain error, 2 usage error. Human output goes to
stdout, diagnostics to stderr; a character stdout cannot encode is written
as a backslash escape. A closed stdout (``geocard ... | head -1``, or an
MCP client that has gone) ends the command with exit 1 and no traceback.
"""

from __future__ import annotations

import json
import os
import sys

from . import __version__
from .errors import GeocardError

# Each command imports the modules it uses. eval and ec7 send each call as
# a checked ``tools/call`` to a fresh McpServer and print or render its
# reply, so eval loads neither the EC7 workflow nor the skills, and
# validate loads neither those nor the MCP server. serve answers the MCP
# handshake before any card, unit or engine module loads; a bare ``serve``
# builds no parser, so it loads neither argparse nor gettext.


def main(argv=None) -> int:
    # Echoed card text can hold characters stdout cannot encode (say, a
    # '³' on an ASCII stream); write them as backslash escapes, as Python
    # does on stderr, instead of dying mid-output.
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(errors="backslashreplace")
    argv = sys.argv[1:] if argv is None else argv
    try:
        code = _run(argv)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader has gone. As the Python documentation's note on SIGPIPE
        # does, point stdout at devnull, so the flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv: list[str]) -> int:
    try:
        if argv == ["serve"]:  # the MCP client's command line: no parser to build
            return cmd_serve(None)
        parser = build_parser()
        args = parser.parse_args(_join_numbers(argv))
        if args.command is None:
            parser.print_help()
            return 2
        return args.func(args)
    except GeocardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _join_numbers(argv: list[str]) -> list[str]:
    """``argv`` with ``--B`` joined to the argument after it (``--B -1e-3``
    as ``--B=-1e-3``): which values that start with "-" argparse reads as
    negative numbers rather than options ("-1e-3", "-inf") differs between
    Python versions."""
    joined = []
    for arg in argv:
        if joined and joined[-1] == "--B":
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def build_parser() -> argparse.ArgumentParser:
    import argparse

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
    shared = argparse.ArgumentParser(add_help=False)  # options of check and design
    shared.add_argument("--scenario", required=True, help="scenario JSON file")
    shared.add_argument("--da", required=True, help="design approach label, or 'all'")
    shared.add_argument("--drainage", choices=("drained", "undrained"),
                        default="drained")
    shared.add_argument("--format", choices=("json", "summary"), default="summary")
    p_check = ec7_sub.add_parser("check", parents=[shared],
                                 help="ULS check at a given width")
    p_check.add_argument("--B", required=True, help='width, unit-tagged: --B "2 m"')
    p_check.set_defaults(func=cmd_ec7_check)
    p_design = ec7_sub.add_parser("design", parents=[shared],
                                  help="search the required width")
    p_design.add_argument("--resolution", help='width grid step: --resolution "1 mm"')
    p_design.set_defaults(func=cmd_ec7_design)
    p_ec7.set_defaults(func=lambda args: (p_ec7.print_help(), 2)[1])

    p_serve = sub.add_parser("serve", help="run the MCP server on stdio")
    p_serve.set_defaults(func=cmd_serve)
    return parser


# ----------------------------------------------------------------- validate ----

def cmd_validate(args) -> int:
    from pathlib import Path

    from .catalog import Catalog, card_files
    from .units import DATA_DIR

    paths = []
    for raw in args.paths or [DATA_DIR / "catalog"]:
        path = Path(raw)
        if path.is_dir():
            found, problem = card_files(path), "no *.json card file in directory"
        else:
            found, problem = [path] if path.is_file() else [], "no such file or directory"
        if not found:
            print(f"usage error: {problem}: {raw}", file=sys.stderr)
            return 2
        paths.extend(found)

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
    """The KEY=VALUE pairs as a dict, or None after a usage error: a pair
    that is not KEY=VALUE, or a key given twice."""
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            print(f"usage error: {label} must be KEY=VALUE, got {pair!r}",
                  file=sys.stderr)
            return None
        if key in out:
            print(f"usage error: {label} gives {key!r} twice", file=sys.stderr)
            return None
        out[key] = value.strip()
    return out


def _call(server, tool: str, arguments: dict) -> str:
    """The text of ``server``'s reply to a ``tools/call`` of ``tool``; an
    error reply, the tool's or the protocol's, raises GeocardError."""
    reply = server.handle_message({"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                                   "params": {"name": tool, "arguments": arguments}})
    if "error" in reply:
        raise GeocardError(reply["error"]["message"])
    text = reply["result"]["content"][0]["text"]
    if reply["result"]["isError"]:
        raise GeocardError(json.loads(text)["message"])
    return text


def cmd_eval(args) -> int:
    from .server import McpServer

    inputs = _parse_kv(args.inputs, "--in")
    overrides = _parse_kv(args.overrides, "--override")
    if inputs is None or overrides is None:
        return 2
    server = McpServer()
    text = _call(server, "geo_evaluate_with_units", dict(
        card=args.card, variant=args.variant, inputs=inputs, overrides=overrides))
    if args.format == "json":
        print(text)
    else:
        from .report import render_report
        print(render_report(json.loads(text), server.catalog.get_method(args.card)))
    return 0


# ---------------------------------------------------------------------- ec7 ----

def _run_ec7(args, tool: str, arguments: dict, print_summary) -> int:
    """Call the MCP tool ``tool`` with ``arguments``, the scenario file and
    the drainage once per Design Approach that ``--da`` names, and print
    the replies: as a JSON list of their texts, or by
    ``print_summary(args, bodies)``."""
    from pathlib import Path

    from .cards import decode_record
    from .ec7 import DESIGN_APPROACHES
    from .server import McpServer

    path = Path(args.scenario)
    if not path.is_file():
        print(f"usage error: no such scenario file: {args.scenario}", file=sys.stderr)
        return 2
    try:
        text = path.read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GeocardError(f"cannot read scenario file {args.scenario}: {exc}") from None
    arguments.update(scenario=decode_record(text, "scenario"), drainage=args.drainage)
    server = McpServer()
    texts = [_call(server, tool, {**arguments, "design_approach": da})
             for da in (DESIGN_APPROACHES if args.da == "all" else [args.da])]
    if args.format == "json":
        print("[\n  " + ",\n  ".join(t.replace("\n", "\n  ") for t in texts) + "\n]")
    else:
        print_summary(args, [json.loads(t) for t in texts])
    return 0


def cmd_ec7_check(args) -> int:
    return _run_ec7(args, "geo_check_footing_uls_ec7", {"B": args.B}, _print_checks)


def _print_checks(args, bodies) -> None:
    from .report import format_sig

    print(f"ULS bearing check at B = {format_sig(bodies[0]['B'])} m "
          f"({args.drainage})")
    print(f"{'DA':8s} {'V_d (kN)':>12s} {'R_d (kN)':>12s} "
          f"{'utilization':>12s}  result")
    for r in bodies:
        util = ("inf" if r["utilization"] is None  # null: infinite
                else f"{r['utilization']:.3f}")
        verdict = "PASS" if r["pass"] else "FAIL"
        print(f"{r['design_approach']:8s} {r['V_d']:12.2f} {r['R_d']:12.2f} "
              f"{util:>12s}  {verdict}")


def cmd_ec7_design(args) -> int:
    given = {} if args.resolution is None else {"resolution": args.resolution}
    return _run_ec7(args, "geo_design_footing_width_ec7", given, _print_designs)


def _print_designs(args, bodies) -> None:
    print(f"Required footing width ({args.drainage})")
    print(f"{'DA':8s} {'B_req (m)':>10s} {'V_d (kN)':>12s} {'R_d (kN)':>12s} "
          f"{'utilization':>12s} {'B_below (m)':>12s}")
    for r in bodies:
        check = r["check"]
        print(f"{r['design_approach']:8s} {r['B_req']!r:>10} {check['V_d']:12.2f} "
              f"{check['R_d']:12.2f} {check['utilization']:12.3f} {r['B_below']!r:>12}")
    if args.da == "all":
        governing = max(bodies, key=lambda r: r["B_req"])
        print(f"governing: {governing['design_approach']} "
              f"(B = {governing['B_req']!r} m)")


# -------------------------------------------------------------------- serve ----

def cmd_serve(args) -> int:
    from .server import serve

    serve()
    return 0


if __name__ == "__main__":
    sys.exit(main())
