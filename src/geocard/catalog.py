"""Card discovery, indexing, and retrieval.

Bundled cards live in ``geocard/data/catalog``. Setting GEOCARD_CATALOG_DIR
prepends a user directory whose cards shadow bundled ids (shadowing is
reported in the load warnings); two user cards with one id are a duplicate,
as they are to ``geocard validate``. A card only enters the index if it
passes both load_card and the dimensional audit; broken files become
diagnostics instead of crashes so one bad card cannot take down the
catalog.

``load_catalog`` builds a fresh catalog on every call. ``default_catalog``
is the process-wide one: built on first use, then shared by the CLI, the
MCP server and the EC7 workflow whenever they are given no catalog.
"""

from __future__ import annotations

import os
from pathlib import Path

from .cards import MethodCard, load_card, validate_dimensions
from .errors import GeocardError, UnknownMethod
from .record import Record
from .units import DATA_DIR

CATALOG_ENV_VAR = "GEOCARD_CATALOG_DIR"


class Catalog(Record):
    __slots__ = ("cards", "diagnostics", "warnings")

    # Its own __init__: each catalog needs fresh containers.
    def __init__(self, cards: dict | None = None, diagnostics: list | None = None,
                 warnings: list | None = None):
        self.cards = {} if cards is None else cards  # id -> MethodCard
        self.diagnostics = [] if diagnostics is None else diagnostics  # load failures
        self.warnings = [] if warnings is None else warnings  # e.g. shadowed ids

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def list_methods(self, category_filter: str | None = None) -> list[dict]:
        out = []
        for card_id in sorted(self.cards):
            card = self.cards[card_id]
            if category_filter is not None and card.category != category_filter:
                continue
            out.append({
                "id": card.id,
                "title": card.title,
                "category": card.category,
                "variants": [v.id for v in card.variants],
            })
        return out

    def get_method(self, card_id: str) -> MethodCard:
        try:
            return self.cards[card_id]
        except KeyError:
            raise UnknownMethod(card_id) from None

    def _ingest(self, path: Path, origin: str,
                shadowable: set = frozenset()) -> MethodCard | None:
        """Read, load and audit one card file; the indexed card, or None on
        failure. A card may replace an indexed one only if its id is in
        ``shadowable``, and only once: the id leaves the set."""
        try:
            card = load_card(path.read_text("utf-8"))
        except (GeocardError, OSError, UnicodeDecodeError) as exc:
            self.diagnostics.append(f"{origin}: {exc}")
            return None
        findings = validate_dimensions(card)
        if findings:
            for finding in findings:
                self.diagnostics.append(f"{origin}: {card.id}: {finding}")
            return None
        if card.id in self.cards:
            if card.id not in shadowable:
                self.diagnostics.append(
                    f"{origin}: duplicate card id {card.id}")
                return None
            shadowable.remove(card.id)
            self.warnings.append(f"{origin}: {card.id} shadows a bundled card")
        self.cards[card.id] = card
        return card


def card_files(directory: Path) -> list[Path]:
    """The ``*.json`` entries of ``directory``, sorted, but hidden ones (an
    editor's ``.#card.json``, say), which are not cards."""
    return sorted(p for p in directory.glob("*.json") if not p.name.startswith("."))


def load_catalog(extra_dir: "str | os.PathLike | None" = None) -> Catalog:
    """Build the catalog from the bundled tree plus an optional user dir.

    ``extra_dir`` defaults to $GEOCARD_CATALOG_DIR when set; user cards
    shadow bundled ids, and only those.
    """
    catalog = Catalog()
    for path in card_files(DATA_DIR / "catalog"):
        catalog._ingest(path, f"bundled:{path.name}")
    bundled_ids = set(catalog.cards)
    if extra_dir is None:
        extra_dir = os.environ.get(CATALOG_ENV_VAR)
    if extra_dir:
        user_root = Path(extra_dir)
        if not user_root.is_dir():
            catalog.diagnostics.append(f"{user_root}: not a directory")
        else:
            for path in card_files(user_root):
                catalog._ingest(path, str(path), bundled_ids)
    return catalog


_DEFAULT: "Catalog | None" = None


def default_catalog() -> Catalog:
    """The catalog of load_catalog(), built once per process on first use.

    $GEOCARD_CATALOG_DIR is read at that first call; later changes to it
    do not reach this catalog.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = load_catalog()
    return _DEFAULT
