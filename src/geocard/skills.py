"""Agent Skill packages: discovery, indexing, search, and retrieval.

A skill is a directory holding ``SKILL.md`` (YAML frontmatter with name,
description, version, category, then Markdown instructions) and an
optional ``references/`` directory of companion Markdown files. Skills are
served verbatim as text; nothing here interprets or executes them.

Relevance ranking is deliberately plain lexical overlap — deterministic
and auditable — with the skill name weighted 3, description 2, and
category 1, normalized to [0, 1].
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .errors import InvalidQuery, UnknownSkill

SKILLS_ENV_VAR = "GEOCARD_SKILLS_DIR"

_FRONTMATTER_FIELDS = ("name", "description", "version", "category")

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class Reference:
    filename: str
    text: str


@dataclass(frozen=True)
class Skill:
    name: str
    description: str
    version: str
    category: str
    body: str
    references: tuple = ()

    def render(self) -> str:
        """SKILL.md text: frontmatter block followed by the body."""
        frontmatter = yaml.safe_dump(
            {
                "name": self.name,
                "description": self.description,
                "version": self.version,
                "category": self.category,
            },
            sort_keys=False,
            default_flow_style=False,
        )
        return f"---\n{frontmatter}---\n{self.body}"

    def without_references(self) -> "Skill":
        return Skill(self.name, self.description, self.version, self.category,
                     self.body, ())

    def to_dict(self, include_references: bool = True) -> dict:
        out = {
            "name": self.name,
            "description": self.description,
            "version": self.version,
            "category": self.category,
            "body": self.body,
            "references": [],
        }
        if include_references:
            out["references"] = [
                {"filename": r.filename, "text": r.text} for r in self.references
            ]
        return out


@dataclass(frozen=True)
class SkillMatch:
    name: str
    score: float
    matched_terms: tuple

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
    meta = yaml.safe_load(text[4:end + 1])
    if not isinstance(meta, dict):
        raise ValueError("frontmatter must be a YAML mapping")
    for key in _FRONTMATTER_FIELDS:
        value = meta.get(key)
        if not isinstance(value, str) or not value.strip():
            raise ValueError(f"frontmatter field {key!r} missing or empty")
    if meta["name"] != name:
        raise ValueError(f"frontmatter name {meta['name']!r} does not match "
                         f"directory name {name!r}")
    body = text[end + 5:]
    return Skill(
        name=meta["name"],
        description=meta["description"],
        version=str(meta["version"]),
        category=meta["category"],
        body=body,
        references=tuple(references),
    )


@dataclass
class SkillLibrary:
    skills: dict = field(default_factory=dict)  # name -> Skill
    diagnostics: list = field(default_factory=list)  # load failures
    warnings: list = field(default_factory=list)     # e.g. shadowed names

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
        return skill if include_references else skill.without_references()

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
        references = []
        seen = set()
        ref_dir = directory / "references"
        if ref_dir.is_dir():
            for path in sorted(ref_dir.glob("*.md")):
                if path.name in seen:
                    continue
                seen.add(path.name)
                references.append(Reference(path.name, path.read_text("utf-8")))
        try:
            skill = parse_skill_text(directory.name,
                                     skill_md.read_text("utf-8"), references)
        except (ValueError, yaml.YAMLError) as exc:
            self.diagnostics.append(f"{origin}: {exc}")
            return
        if skill.name in self.skills and shadow_allowed:
            self.warnings.append(f"{origin}: {skill.name} shadows a bundled skill")
        self.skills[skill.name] = skill


def load_skills(extra_dir: "str | os.PathLike | None" = None,
                include_bundled: bool = True) -> SkillLibrary:
    """Scan the bundled skill tree plus an optional user directory.

    ``extra_dir`` defaults to $GEOCARD_SKILLS_DIR when set; user skills
    shadow bundled names. Rescanning is explicit: call this again.
    """
    library = SkillLibrary()
    if include_bundled:
        root = Path(str(resources.files("geocard").joinpath("data/skills")))
        if root.is_dir():
            for entry in sorted(root.iterdir()):
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
