"""Markdown calculation reports rendered from a trace's wire form.

Reports show 4 significant figures; the JSON trace remains the lossless
record. A report reads the decoded JSON of a trace, as an MCP client does:
every number, the request echo and the source list come from it, so the
reference list is generated, not hand-maintained; only the titles,
assumptions and applicability come from the card.
"""

from __future__ import annotations


def format_sig(value: float) -> str:
    """Format to 4 significant figures, in plain notation from 1e-4 up to
    1e7: the g format's 1.2e+04 is printed as 12000."""
    if value == 0:
        return "0"
    text = f"{value:.4g}"
    exponent = text.partition("e")[2]
    if exponent and 0 < int(exponent) < 7:
        text = f"{float(text):.0f}"
    return text


def render_report(trace: dict, card) -> str:
    """Render a trace's wire dict as a Markdown calculation report of ``card``."""
    request = trace["request"]
    variant = card.variant(request["variant"])
    lines = [
        f"# {card.title}",
        "",
        f"Method card: `{request['card']}`, variant `{request['variant']}` ({variant.title})",
        "",
        "## Inputs",
        "",
    ]
    for key, value in request["inputs"].items():  # already in sorted key order
        lines.append(f"- `{key}` = {value}")
    if request["overrides"]:
        lines.append("")
        lines.append("Parameter overrides:")
        for key, value in request["overrides"].items():
            lines.append(f"- `{key}` = {value}")

    lines += ["", "## Calculation Steps", ""]
    for step in trace["steps"]:
        target, unit = step["target"], step["unit"]
        unit_text = "" if unit == "dimensionless" else f" {unit}"
        lines.append(f"### Step {step['index'] + 1}: `{target}`")
        if step["description"]:
            lines.append(f"*{step['description']}*")
        lines.append("")
        lines.append(f"    {target} = {step['expression']}")
        if step["inputs"]:  # already in sorted key order
            substituted = ", ".join(
                f"{k} = {format_sig(v)}" for k, v in step["inputs"].items())
            lines.append(f"    with {substituted}")
        marker = " (fixed-point iteration)" if step["method"] == "iterative" else ""
        lines.append(f"    {target} = {format_sig(step['value'])}"
                     f"{unit_text}{marker}")
        lines.append("")

    lines += ["## Outputs", ""]
    for key, output in trace["outputs"].items():
        unit_text = "" if output["unit"] == "dimensionless" else f" {output['unit']}"
        lines.append(f"- **{key}** = {format_sig(output['value'])}{unit_text}")

    if trace["diagnostics"].get("iterative_cycles"):
        lines += ["", "## Solver Diagnostics", ""]
        for cycle in trace["diagnostics"]["iterative_cycles"]:
            lines.append(
                f"- fixed-point cycle over {{{', '.join(cycle['variables'])}}}: "
                f"{cycle['iterations']} iterations, residual "
                f"{cycle['residual']:.2e}")

    if card.assumptions:
        lines += ["", "## Assumptions", ""]
        lines += [f"- {a}" for a in card.assumptions]
    if card.applicability:
        lines += ["", "## Applicability", ""]
        lines += [f"- {a}" for a in card.applicability]

    lines += ["", "## Sources", ""]
    for i, source in enumerate(trace["sources"], start=1):
        entry = f"{i}. {source['title']}"
        if source["url"]:
            entry += f" <{source['url']}>"
        lines.append(entry)
    lines.append("")
    return "\n".join(lines)
