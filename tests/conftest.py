"""Shared pytest wiring: the acceptance suite's per-criterion summary,
the card files that exercise the catalog's load diagnostics, a default
catalog built afresh, and a fresh server's health reply."""

import json
from pathlib import Path

import pytest

ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def record_criterion(number: int, verdict: str, description: str) -> None:
    ACCEPTANCE_RESULTS.append((number, verdict, description))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, verdict, description in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            f"criterion {number}: {verdict} - {description}")


BAD_CARD_FILES = ("superscript.json", "nested_parens.json", "not_utf8.json",
                  "deep_json.json", "directory.json", "huge_int.json")

# An integer literal past Python's 4300-digit int conversion limit.
HUGE_INT = "1" + "0" * 4999


def fresh_health() -> dict:
    """The geo_health reply of a fresh McpServer, decoded: the call goes
    through handle_message, as a client's does."""
    from geocard.server import McpServer

    reply = McpServer().handle_message({"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                                        "params": {"name": "geo_health"}})
    return json.loads(reply["result"]["content"][0]["text"])


@pytest.fixture
def fresh_default_catalog():
    """``default_catalog()`` built again on its next call, and dropped at
    teardown, so no later test sees a catalog built from this test's
    GEOCARD_CATALOG_DIR or patched loader."""
    from geocard.catalog import default_catalog

    default_catalog.cache_clear()
    yield default_catalog
    default_catalog.cache_clear()


@pytest.fixture
def bad_card_dir(tmp_path):
    """A directory of card files that each used to crash the catalog load:
    a superscript digit, 300 nested parentheses, a non-UTF-8 byte, a JSON
    array nested 100 000 deep, a directory whose name matches *.json, and a
    5000-digit integer."""
    good = json.loads((Path(__file__).parents[1] / "src/geocard/data/catalog"
                       / "bearing_capacity_terzaghi.json").read_text("utf-8"))
    for name, expression in (("superscript.json", "2² * phi_prime"),
                             ("nested_parens.json",
                              "(" * 300 + "phi_prime" + ")" * 300)):
        card = json.loads(json.dumps(good))
        card["id"] = name.split(".")[0].upper()
        card["variants"][0]["equations"][0]["sympy"] = expression
        (tmp_path / name).write_text(json.dumps(card), "utf-8")
    (tmp_path / "not_utf8.json").write_bytes(b'{"id": "\xff"}')
    (tmp_path / "deep_json.json").write_text("[" * 100_000 + "]" * 100_000)
    (tmp_path / "directory.json").mkdir()
    (tmp_path / "huge_int.json").write_text('{"id": %s}' % HUGE_INT)
    return tmp_path
