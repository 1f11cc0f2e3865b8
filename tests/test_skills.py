"""Skill package loading, search ranking, and the bundled skill's contract."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fresh_health
from geocard.errors import UnknownSkill
from geocard.skills import Skill, SkillLibrary, load_skills, parse_skill_text

LIBRARY = load_skills()
BUNDLED = "shallow-foundation-bearing-capacity"


def render(skill):
    """SKILL.md text: one double-quoted line per field, then the body."""
    frontmatter = "".join(
        f"{key}: {json.dumps(getattr(skill, key), ensure_ascii=False)}\n"
        for key in ("name", "description", "version", "category"))
    return f"---\n{frontmatter}---\n{skill.body}"


class TestListSkills:
    def test_bundled_skill_present(self):
        names = [s["name"] for s in LIBRARY.list_skills()]
        assert BUNDLED in names
        assert names == sorted(names)

    def test_library_loads_clean(self):
        assert LIBRARY.diagnostics == []

    def test_empty_dir_is_empty_library(self, tmp_path):
        lib = load_skills(extra_dir=tmp_path)
        assert lib.list_skills() == LIBRARY.list_skills()
        assert lib.diagnostics == []


    def test_hidden_entries_are_not_skills(self, tmp_path, monkeypatch):
        """A skill directory kept under git stays healthy."""
        (tmp_path / ".git" / "objects").mkdir(parents=True)
        (tmp_path / ".cache").mkdir()
        monkeypatch.setenv("GEOCARD_SKILLS_DIR", str(tmp_path))
        health = fresh_health()
        assert (health["status"], health["diagnostics"]) == ("ok", [])
        assert health["skills"] == len(LIBRARY.skills)

    def test_env_var_skill_dir(self, tmp_path, monkeypatch):
        d = tmp_path / "custom-skill"
        d.mkdir()
        (d / "SKILL.md").write_text(
            "---\nname: custom-skill\ndescription: custom\nversion: '1'\n"
            "category: Testing\n---\nbody")
        monkeypatch.setenv("GEOCARD_SKILLS_DIR", str(tmp_path))
        lib = load_skills()
        assert "custom-skill" in {s["name"] for s in lib.list_skills()}

    def test_malformed_frontmatter_is_diagnosed_and_excluded(self, tmp_path):
        bad = tmp_path / "broken-skill"
        bad.mkdir()
        (bad / "SKILL.md").write_text("---\nname: broken-skill\n---\nno fields")
        lib = load_skills(extra_dir=tmp_path)
        assert lib.list_skills() == LIBRARY.list_skills()
        assert any("broken-skill" in d for d in lib.diagnostics)

    @pytest.mark.parametrize("text, diagnostic", [
        (None, "no SKILL.md"),
        ("name: no-fence\n---\nbody",
         "SKILL.md must begin with a '---' frontmatter block"),
        ("---\nname: no-fence\ndescription: d\n", "unterminated frontmatter block"),
    ], ids=["no-skill-md", "no-opening-fence", "unterminated"])
    def test_unreadable_skill_dir_is_one_diagnostic(self, tmp_path, text,
                                                    diagnostic):
        skill_dir = tmp_path / "no-fence"
        skill_dir.mkdir()
        if text is not None:
            (skill_dir / "SKILL.md").write_text(text)
        lib = load_skills(extra_dir=tmp_path)
        assert lib.list_skills() == LIBRARY.list_skills()
        assert lib.diagnostics == [f"{skill_dir}: {diagnostic}"]

    def test_env_var_naming_a_file_degrades_health(self, tmp_path,
                                                   monkeypatch):
        not_a_dir = tmp_path / "SKILL.md"
        not_a_dir.write_text("---\n---\n")
        monkeypatch.setenv("GEOCARD_SKILLS_DIR", str(not_a_dir))
        health = fresh_health()
        assert health["status"] == "degraded"
        assert health["skills"] == len(LIBRARY.skills)
        assert health["diagnostics"] == [f"{not_a_dir}: not a directory"]

    def test_unreadable_reference_is_one_diagnostic(self, tmp_path,
                                                    monkeypatch):
        skill_dir = tmp_path / "broken-reference"
        notes = skill_dir / "references" / "notes.md"
        notes.mkdir(parents=True)  # a directory where a file belongs
        (skill_dir / "SKILL.md").write_text(
            "---\nname: broken-reference\ndescription: d\nversion: '1'\n"
            "category: c\n---\nbody")
        with pytest.raises(OSError) as cause:
            notes.read_text("utf-8")
        monkeypatch.setenv("GEOCARD_SKILLS_DIR", str(tmp_path))
        health = fresh_health()
        assert health["status"] == "degraded"
        assert health["skills"] == len(LIBRARY.skills)
        assert health["diagnostics"] == [f"{skill_dir}: {cause.value}"]

    def test_name_must_match_directory(self, tmp_path):
        bad = tmp_path / "dir-name"
        bad.mkdir()
        (bad / "SKILL.md").write_text(
            "---\nname: other-name\ndescription: d\nversion: '1'\n"
            "category: c\n---\nbody")
        lib = load_skills(extra_dir=tmp_path)
        assert lib.list_skills() == LIBRARY.list_skills()
        assert any("does not match" in d for d in lib.diagnostics)


class TestGetSkill:
    def test_with_references(self):
        skill = LIBRARY.get_skill(BUNDLED, include_references=True)
        filenames = [r.filename for r in skill.references]
        assert "method-comparison.md" in filenames
        comparison = next(r for r in skill.references
                          if r.filename == "method-comparison.md")
        assert "TERZAGHI" in comparison.text

    def test_without_references(self):
        skill = LIBRARY.get_skill(BUNDLED, include_references=False)
        assert skill.references == ()

    def test_unknown_skill(self):
        with pytest.raises(UnknownSkill):
            LIBRARY.get_skill("missing")


class TestRecommendSkills:
    def test_bearing_capacity_query(self):
        matches = LIBRARY.recommend_skills(
            "bearing capacity strip footing eurocode")
        assert matches
        assert matches[0].name == BUNDLED
        assert matches[0].score > 0
        # Manual token-overlap oracle: "bearing" and "capacity" hit the
        # name (weight 3) and description (weight 2); "footing", "strip",
        # and "eurocode" hit the description. 5 query tokens, so
        # score = (2*(3+2) + 3*2) / (6*5).
        assert matches[0].score == pytest.approx(16 / 30)
        assert "bearing" in matches[0].matched_terms

    def test_no_overlap(self):
        assert LIBRARY.recommend_skills("xylophone") == []

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            LIBRARY.recommend_skills("")

    def test_deterministic_and_stable(self):
        first = LIBRARY.recommend_skills("foundation bearing", limit=3)
        second = LIBRARY.recommend_skills("foundation bearing", limit=3)
        assert [(m.name, m.score, m.matched_terms) for m in first] == \
            [(m.name, m.score, m.matched_terms) for m in second]

    def test_scores_in_unit_interval_and_sorted(self):
        matches = LIBRARY.recommend_skills(
            "shallow foundation bearing capacity eurocode design")
        scores = [m.score for m in matches]
        assert all(0 < s <= 1 for s in scores)
        assert scores == sorted(scores, reverse=True)

    def test_tie_broken_lexicographically(self, tmp_path):
        for name in ("zz-tied-skill", "aa-tied-skill"):
            d = tmp_path / name
            d.mkdir()
            (d / "SKILL.md").write_text(
                f"---\nname: {name}\ndescription: erosion analysis\n"
                f"version: '1'\ncategory: Erosion\n---\nbody")
        lib = load_skills(extra_dir=tmp_path)
        matches = lib.recommend_skills("erosion")
        assert [m.name for m in matches] == ["aa-tied-skill", "zz-tied-skill"]


def _scored_as_before(library, query, limit):
    """The ranking written out on its own, the reference of
    ``recommend_skills``: every field tokenized on every call."""
    tokens = re.compile(r"[a-z0-9]+")
    query_tokens = set(tokens.findall(query.lower()))
    ranked = []
    for name in sorted(library.skills):
        skill = library.skills[name]
        hits, matched = 0, set()
        for weight, text in ((3, skill.name), (2, skill.description), (1, skill.category)):
            overlap = query_tokens & set(tokens.findall(text.lower()))
            hits += weight * len(overlap)
            matched |= overlap
        if hits:
            ranked.append((name, hits / (6 * len(query_tokens)), tuple(sorted(matched))))
    ranked.sort(key=lambda m: (-m[1], m[0]))
    return ranked[:limit]


_WORDS = st.sampled_from(["bearing", "capacity", "footing", "strip", "Eurocode",
                          "EC7", "shallow", "foundation", "slope", "pile", "7",
                          "Soil", "design", "erosion", "x"])
_PHRASES = st.lists(_WORDS | st.text(max_size=6), min_size=1, max_size=6).map(" ".join)


class TestRankingEqualsFormerScoring:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.from_regex(r"[a-z]{1,6}(-[a-z0-9]{1,4})?", fullmatch=True),
                           st.tuples(_PHRASES, _PHRASES), max_size=4),
           _PHRASES, st.integers(1, 6))
    def test_ranking_equals_the_former_scoring(self, drawn, query, limit):
        library = SkillLibrary({**LIBRARY.skills, **{
            name: Skill(name, description, "1", category, "body")
            for name, (description, category) in drawn.items()}})
        if not query.strip():
            return
        got = [(m.name, m.score, m.matched_terms)
               for m in library.recommend_skills(query, limit)]
        assert got == _scored_as_before(library, query, limit)


class TestBundledSkillContent:
    def test_frontmatter_round_trip(self):
        skill = LIBRARY.get_skill(BUNDLED, include_references=True)
        again = parse_skill_text(skill.name, render(skill),
                                 skill.references)
        assert again == skill

    def test_reasoning_sections_in_order(self):
        """The instruction body walks classification, site assessment,
        method selection, orchestration, interpretation, in that order."""
        body = LIBRARY.get_skill(BUNDLED, include_references=False).body
        headings = re.findall(r"^## (.+)$", body, flags=re.MULTILINE)
        expected = ["Problem Classification", "Site Assessment",
                    "Method Selection", "Calculation Orchestration",
                    "Result Interpretation"]
        positions = [headings.index(h) for h in expected]
        assert positions == sorted(positions)
        assert len(positions) == 5

    def test_skill_names_catalog_cards(self):
        skill = LIBRARY.get_skill(BUNDLED, include_references=False)
        for card_id in ("BEARING_CAPACITY_TERZAGHI", "BEARING_CAPACITY_MEYERHOF",
                        "BEARING_CAPACITY_VESIC", "BEARING_CAPACITY_EUROCODE7"):
            assert card_id in skill.body

    def test_user_skill_shadows_bundled(self, tmp_path):
        d = tmp_path / BUNDLED
        d.mkdir()
        (d / "SKILL.md").write_text(
            f"---\nname: {BUNDLED}\ndescription: replacement\n"
            f"version: '9'\ncategory: Testing\n---\nshadow body")
        lib = load_skills(extra_dir=tmp_path)
        assert lib.get_skill(BUNDLED, False).version == "9"
        assert any("shadows" in w for w in lib.warnings)


def frontmatter(*lines, name="s"):
    return "\n".join(["---", f"name: {name}", *lines, "---", "body"])


class TestFrontmatterReader:
    """SKILL.md frontmatter is read as YAML reads it, or refused."""

    def test_bundled_fields_pinned(self):
        skill = LIBRARY.get_skill(BUNDLED)
        assert (skill.name, skill.version, skill.category) == (
            BUNDLED, "1.0.0", "Shallow Foundations")
        # The string PyYAML folded from the three indented lines.
        assert skill.description == (
            "Structured procedure for assessing the bearing capacity of "
            "shallow foundations (strip, square, rectangular) with the "
            "catalog's Terzaghi, Meyerhof, Vesic, and Eurocode 7 method cards, "
            "including EC7 partial-factor design checks and footing sizing.")

    def test_render_round_trips_yaml_indicators(self):
        skill = Skill("odd: name", "a # b, 'c' and \"d\"", "> 1", "x: y #z",
                      "body\n")
        assert parse_skill_text("odd: name", render(skill)) == skill

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(min_size=1).filter(str.strip), min_size=4,
                    max_size=4))
    def test_render_round_trips_any_text(self, fields):
        skill = Skill(*fields, body="body")
        assert parse_skill_text(fields[0], render(skill)) == skill

    def test_quoted_values_unquoted_as_yaml_does(self):
        skill = parse_skill_text("s", frontmatter(
            'description: "tab\\there \\"quoted\\""',
            "version: 'it''s'", "category: c"))
        assert skill.description == 'tab\there "quoted"'
        assert skill.version == "it's"

    def test_indented_lines_fold_with_one_space(self):
        skill = parse_skill_text("s", frontmatter(
            "description:", "  first", "    second", "version: 1",
            "category: 'a", "  b'"))
        assert skill.description == "first second"
        assert skill.category == "a b"

    def test_plain_version_is_text(self):
        skill = parse_skill_text("s", frontmatter(
            "description: d", "version: 1", "category: c"))
        assert skill.version == "1"

    def test_other_keys_ignored(self):
        skill = parse_skill_text("s", frontmatter(
            "# a comment", "", "description: d", "metadata:",
            "  author: someone", "  tags: [a, b]", "allowed-tools:",
            "- Read", "- Grep", "license: |", "  MIT: see file", "",
            "  # not a comment", "version: '2'", "category: c"))
        assert (skill.description, skill.version, skill.category) == (
            "d", "2", "c")

    @pytest.mark.parametrize("line", [
        "description: >", "description: |", "description: [a, b]",
        "description: {a: b}", "description: &anchor d", "description: *alias",
        "description: !tag d", "description: %d", "description: a: b",
        "description: d  # note", "description: 'unterminated",
        'description: "bad \\q escape"', "description:\t d",
        "description: d\n  # a comment\n  more", "description: d\n- item",
        "description: d\n\n  more",
    ])
    def test_yaml_only_syntax_is_refused(self, line):
        with pytest.raises(ValueError):
            parse_skill_text("s", frontmatter(line, "version: '1'", "category: c"))

    def test_trailing_comment_is_a_diagnostic(self, tmp_path):
        skill_dir = tmp_path / "commented"
        skill_dir.mkdir()
        (skill_dir / "SKILL.md").write_text(frontmatter(
            "description: d", "version: '1'", "category: x  # note",
            name="commented"))
        lib = load_skills(extra_dir=tmp_path)
        assert "commented" not in lib.skills
        assert f"{skill_dir}: frontmatter field 'category': 'x  # note' is " \
            "YAML this reader does not accept" in lib.diagnostics

    def test_undecodable_reference_is_a_diagnostic(self, tmp_path):
        d = tmp_path / "bad-bytes"
        (d / "references").mkdir(parents=True)
        (d / "SKILL.md").write_text(frontmatter(
            "description: d", "version: 1", "category: c", name="bad-bytes"))
        (d / "references" / "notes.md").write_bytes(b"\xff")
        lib = load_skills(extra_dir=tmp_path)
        assert "bad-bytes" not in lib.skills
        assert any("bad-bytes" in d and "utf-8" in d for d in lib.diagnostics)
