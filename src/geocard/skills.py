"""Agent Skill packages: discovery, indexing, search, and retrieval.

A skill is a directory holding ``SKILL.md`` (a frontmatter block with
name, description, version, category, then Markdown instructions) and an
optional ``references/`` directory of companion Markdown files. Skills are
served verbatim as text; nothing here interprets or executes them.

The frontmatter is read without a YAML library, the way YAML reads it:
``key: value`` lines, indented lines folded in, ``'...'`` or ``"..."``
quoting. Other keys are skipped; any other YAML form is a load diagnostic.

Relevance ranking is deliberately plain lexical overlap — deterministic
and auditable — with the skill name weighted 3, description 2, and
category 1, normalized to [0, 1].
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from .errors import InvalidQuery, UnknownSkill
from .record import FrozenRecord, Record, set_field
from .units import DATA_DIR

SKILLS_ENV_VAR = "GEOCARD_SKILLS_DIR"

_FRONTMATTER_FIELDS = ("name", "description", "version", "category")

_TOKEN_RE = re.compile(r"[a-z0-9]+")

_KEY_LINE_RE = re.compile(r"([\w-]+):(?: +(.*))?$")
_SINGLE_QUOTED_RE = re.compile(r"'((?:[^']|'')*)'")
# A plain value YAML would not read as its own text: one that starts with an
# indicator, or holds a tab, a " #" comment or a ": " (or ends in ":").
_YAML_ONLY_RE = re.compile(
    r"""['"|>,\[\]{}&*!%@`#]|[-?:](\s|$)|.*(\t|\s#|:(\s|$))""")


class Reference(FrozenRecord):
    __slots__ = ("filename", "text")

    def __init__(self, filename: str, text: str):
        set_field(self, "filename", filename)
        set_field(self, "text", text)


class Skill(FrozenRecord):
    __slots__ = ("name", "description", "version", "category", "body",
                 "references")

    def __init__(self, name: str, description: str, version: str,
                 category: str, body: str, references: tuple = ()):
        set_field(self, "name", name)
        set_field(self, "description", description)
        set_field(self, "version", version)
        set_field(self, "category", category)
        set_field(self, "body", body)
        set_field(self, "references", references)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "version": self.version,
            "category": self.category,
            "body": self.body,
            "references": [
                {"filename": r.filename, "text": r.text} for r in self.references
            ],
        }


class SkillMatch(FrozenRecord):
    __slots__ = ("name", "score", "matched_terms")

    def __init__(self, name: str, score: float, matched_terms: tuple):
        set_field(self, "name", name)
        set_field(self, "score", score)
        set_field(self, "matched_terms", matched_terms)

    def to_dict(self) -> dict:
        return {"name": self.name, "score": self.score,
                "matched_terms": list(self.matched_terms)}


def parse_skill_text(name: str, text: str, references=()) -> Skill:
    """Parse SKILL.md content; raises ValueError on malformed frontmatter."""
    if not text.startswith("---\n"):
        raise ValueError("SKILL.md must begin with a '---' frontmatter block")
    end = text.find("\n---\n", 4)
    if end < 0:
        raise ValueError("unterminated frontmatter block")
    meta = _read_frontmatter(text[4:end + 1])
    if meta["name"] != name:
        raise ValueError(f"frontmatter name {meta['name']!r} does not match "
                         f"directory name {name!r}")
    return Skill(**meta, body=text[end + 5:], references=tuple(references))


def _read_frontmatter(block: str) -> dict:
    """The four frontmatter fields of ``block``, as YAML reads them."""
    meta, key = {}, None
    for line in block.split("\n"):
        if not line.strip(" ") or line.lstrip(" ").startswith("#"):
            key = None if key in _FRONTMATTER_FIELDS else key  # ends a value
        elif line.startswith((" ", "- ")):
            if key is None or (key in _FRONTMATTER_FIELDS and line[0] == "-"):
                raise ValueError(f"frontmatter line {line!r} continues no value")
            if key in _FRONTMATTER_FIELDS:
                meta[key] = f"{meta[key]} {line.strip(' ')}".lstrip(" ")
        elif match := _KEY_LINE_RE.match(line):
            key = match[1]
            meta[key] = (match[2] or "").strip(" ")
        else:
            raise ValueError(f"frontmatter line {line!r} is not 'key: value'")
    fields = {}
    for key in _FRONTMATTER_FIELDS:
        value = meta.get(key, "")
        quoted = _SINGLE_QUOTED_RE.fullmatch(value)
        try:
            if quoted:
                value = quoted[1].replace("''", "'")
            elif value[:1] == value[-1:] == '"':
                value = json.loads(value)
            elif _YAML_ONLY_RE.match(value):
                raise ValueError
        except ValueError:
            raise ValueError(f"frontmatter field {key!r}: {value!r} is YAML "
                             "this reader does not accept") from None
        if not value.strip():
            raise ValueError(f"frontmatter field {key!r} missing or empty")
        fields[key] = value
    return fields


class SkillLibrary(Record):
    __slots__ = ("skills", "diagnostics", "warnings")

    def __init__(self, skills: dict | None = None, diagnostics: list | None = None,
                 warnings: list | None = None):
        self.skills = {} if skills is None else skills  # name -> Skill
        self.diagnostics = [] if diagnostics is None else diagnostics  # load failures
        self.warnings = [] if warnings is None else warnings  # e.g. shadowed names

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def list_skills(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "description": s.description,
                "category": s.category,
                "version": s.version,
            }
            for s in (self.skills[n] for n in sorted(self.skills))
        ]

    def get_skill(self, name: str, include_references: bool = True) -> Skill:
        try:
            skill = self.skills[name]
        except KeyError:
            raise UnknownSkill(name) from None
        if include_references:
            return skill
        return Skill(skill.name, skill.description, skill.version,
                     skill.category, skill.body)

    def recommend_skills(self, query: str, limit: int = 5) -> list[SkillMatch]:
        """Rank skills by weighted exact-token overlap with the query."""
        if not query or not query.strip():
            raise InvalidQuery("query must be non-empty")
        if limit < 1:
            raise InvalidQuery(f"limit must be at least 1, got {limit}")
        query_tokens = set(_TOKEN_RE.findall(query.lower()))
        if not query_tokens:
            return []
        matches = []
        for name in sorted(self.skills):
            skill = self.skills[name]
            fields = (
                (3, set(_TOKEN_RE.findall(skill.name.lower()))),
                (2, set(_TOKEN_RE.findall(skill.description.lower()))),
                (1, set(_TOKEN_RE.findall(skill.category.lower()))),
            )
            hits = 0
            matched: set[str] = set()
            for weight, tokens in fields:
                overlap = query_tokens & tokens
                hits += weight * len(overlap)
                matched |= overlap
            if hits:
                score = hits / (6 * len(query_tokens))
                matches.append(SkillMatch(name, score, tuple(sorted(matched))))
        matches.sort(key=lambda m: (-m.score, m.name))
        return matches[:limit]

    def _ingest_dir(self, directory: Path, origin: str,
                    shadow_allowed: bool) -> None:
        skill_md = directory / "SKILL.md"
        if not skill_md.is_file():
            self.diagnostics.append(f"{origin}: no SKILL.md")
            return
        try:
            references = [Reference(path.name, path.read_text("utf-8"))
                          for path in sorted(directory.glob("references/*.md"))]
            skill = parse_skill_text(directory.name,
                                     skill_md.read_text("utf-8"), references)
        except (OSError, ValueError) as exc:  # ValueError includes UnicodeDecodeError
            self.diagnostics.append(f"{origin}: {exc}")
            return
        if skill.name in self.skills and shadow_allowed:
            self.warnings.append(f"{origin}: {skill.name} shadows a bundled skill")
        self.skills[skill.name] = skill


def load_skills(extra_dir: "str | os.PathLike | None" = None) -> SkillLibrary:
    """Scan the bundled skill tree plus an optional user directory.

    ``extra_dir`` defaults to $GEOCARD_SKILLS_DIR when set; user skills
    shadow bundled names. Rescanning is explicit: call this again.
    """
    library = SkillLibrary()
    for entry in sorted((DATA_DIR / "skills").iterdir()):
        if entry.is_dir():
            library._ingest_dir(entry, f"bundled:{entry.name}",
                                shadow_allowed=False)
    if extra_dir is None:
        extra_dir = os.environ.get(SKILLS_ENV_VAR)
    if extra_dir:
        user_root = Path(extra_dir)
        if not user_root.is_dir():
            library.diagnostics.append(f"{user_root}: not a directory")
        else:
            for entry in sorted(user_root.iterdir()):
                if entry.is_dir():
                    library._ingest_dir(entry, str(entry), shadow_allowed=True)
    return library
