"""Catalog indexing plus the factor regressions that pin each card's
method-specific expressions against the independent oracle."""

import json
import math
import subprocess
import sys

import pytest

import oracles
from conftest import BAD_CARD_FILES, fresh_health
from geocard.catalog import load_catalog
from geocard.engine import EvaluationRequest, evaluate_card
from geocard.errors import UnknownMethod

CATALOG = load_catalog()

BUNDLED_IDS = [
    "BEARING_CAPACITY_EUROCODE7",
    "BEARING_CAPACITY_MEYERHOF",
    "BEARING_CAPACITY_TERZAGHI",
    "BEARING_CAPACITY_VESIC",
]


def factors(card_id, variant, phi, **extra):
    card = CATALOG.get_method(card_id)
    inputs = {v.key: 0.0 for v in card.variables if v.role == "input"}
    for key in ("B", "L"):
        if key in inputs:
            inputs[key] = 1.0
    inputs[("phi_prime_d" if card_id == "BEARING_CAPACITY_EUROCODE7"
            else "phi_prime")] = phi
    inputs.update(extra)
    trace = evaluate_card(card, EvaluationRequest(card_id, variant, inputs))
    return {s["target"]: s["value"] for s in trace.steps}


class TestIndex:
    def test_list_all(self):
        ids = [m["id"] for m in CATALOG.list_methods()]
        assert ids == BUNDLED_IDS  # lexicographic by id

    def test_category_filter(self):
        listed = CATALOG.list_methods("Shallow Foundations - Bearing Capacity")
        assert [m["id"] for m in listed] == BUNDLED_IDS

    def test_unmatched_filter(self):
        assert CATALOG.list_methods("Nonexistent") == []

    def test_get_method_full_card(self):
        card = CATALOG.get_method("BEARING_CAPACITY_EUROCODE7")
        assert {v.id for v in card.variants} == {"drained", "undrained"}
        assert card.assumptions and card.applicability

    def test_unknown_method(self):
        with pytest.raises(UnknownMethod):
            CATALOG.get_method("NOPE")

    def test_every_card_cites_a_source(self):
        for card in CATALOG.cards.values():
            assert len(card.sources) >= 1

    def test_bundled_catalog_loads_clean(self):
        assert CATALOG.diagnostics == []
        assert CATALOG.ok

    def test_user_dir_shadows_with_diagnostic(self, tmp_path):
        shadow = CATALOG.get_method("BEARING_CAPACITY_TERZAGHI").to_dict()
        shadow["title"] = "Shadowed"
        (tmp_path / "terzaghi.json").write_text(json.dumps(shadow))
        merged = load_catalog(extra_dir=tmp_path)
        assert merged.get_method("BEARING_CAPACITY_TERZAGHI").title == "Shadowed"
        assert any("shadows" in w for w in merged.warnings)


    def test_env_var_prepends_user_catalog(self, tmp_path, monkeypatch):
        shadow = CATALOG.get_method("BEARING_CAPACITY_VESIC").to_dict()
        shadow["title"] = "From env dir"
        (tmp_path / "vesic.json").write_text(json.dumps(shadow))
        monkeypatch.setenv("GEOCARD_CATALOG_DIR", str(tmp_path))
        merged = load_catalog()
        assert merged.get_method("BEARING_CAPACITY_VESIC").title == "From env dir"
        assert any("shadows" in w for w in merged.warnings)

    def test_second_user_card_with_one_new_id_is_a_duplicate(self, tmp_path):
        card = CATALOG.get_method("BEARING_CAPACITY_TERZAGHI").to_dict()
        card["id"] = "MY_CARD"
        (tmp_path / "a.json").write_text(json.dumps(dict(card, title="First")))
        (tmp_path / "b.json").write_text(json.dumps(dict(card, title="Second")))
        merged = load_catalog(extra_dir=tmp_path)
        assert merged.get_method("MY_CARD").title == "First"
        assert merged.diagnostics == [
            f"{tmp_path / 'b.json'}: duplicate card id MY_CARD"]
        assert merged.warnings == []
        assert not merged.ok

    def test_bundled_id_is_shadowed_once(self, tmp_path):
        card = CATALOG.get_method("BEARING_CAPACITY_VESIC").to_dict()
        (tmp_path / "a.json").write_text(json.dumps(dict(card, title="First")))
        (tmp_path / "b.json").write_text(json.dumps(dict(card, title="Second")))
        merged = load_catalog(extra_dir=tmp_path)
        assert merged.get_method("BEARING_CAPACITY_VESIC").title == "First"
        assert merged.warnings == [
            f"{tmp_path / 'a.json'}: BEARING_CAPACITY_VESIC shadows a bundled card"]
        assert merged.diagnostics == [
            f"{tmp_path / 'b.json'}: duplicate card id BEARING_CAPACITY_VESIC"]

    def test_duplicate_user_ids_degrade_health(self, tmp_path, monkeypatch):
        import geocard.catalog

        card = CATALOG.get_method("BEARING_CAPACITY_TERZAGHI").to_dict()
        card["id"] = "MY_CARD"
        (tmp_path / "a.json").write_text(json.dumps(card))
        (tmp_path / "b.json").write_text(json.dumps(card))
        monkeypatch.setenv("GEOCARD_CATALOG_DIR", str(tmp_path))
        monkeypatch.setattr(geocard.catalog, "_DEFAULT", None)
        health = fresh_health()
        assert health["status"] == "degraded"
        assert health["diagnostics"] == [
            f"{tmp_path / 'b.json'}: duplicate card id MY_CARD"]

    def test_env_var_naming_a_file_degrades_health(self, tmp_path,
                                                   monkeypatch):
        import geocard.catalog

        not_a_dir = tmp_path / "card.json"
        not_a_dir.write_text("{}")
        monkeypatch.setenv("GEOCARD_CATALOG_DIR", str(not_a_dir))
        monkeypatch.setattr(geocard.catalog, "_DEFAULT", None)
        health = fresh_health()
        assert health["status"] == "degraded"
        assert health["cards"] == len(BUNDLED_IDS)
        assert health["diagnostics"] == [f"{not_a_dir}: not a directory"]

    def test_hidden_entries_are_not_cards(self, tmp_path):
        """An editor's lock or backup file beside a user card is no card."""
        card = CATALOG.get_method("BEARING_CAPACITY_TERZAGHI").to_dict()
        card["id"] = "MY_CARD"
        (tmp_path / "card.json").write_text(json.dumps(card))
        (tmp_path / ".#card.json").write_text("user@host.1234:1700000000")
        (tmp_path / ".card.json").write_text(json.dumps(dict(card, id="HIDDEN")))
        merged = load_catalog(extra_dir=tmp_path)
        assert (merged.diagnostics, merged.warnings) == ([], [])
        assert set(merged.cards) == set(BUNDLED_IDS) | {"MY_CARD"}

    def test_broken_user_card_is_diagnosed_not_fatal(self, tmp_path):
        (tmp_path / "broken.json").write_text('{"id": "X"}')
        merged = load_catalog(extra_dir=tmp_path)
        assert len(merged.cards) == len(BUNDLED_IDS)
        assert any("broken.json" in d for d in merged.diagnostics)

    def test_unproduced_intermediate_is_diagnosed_at_load(self, tmp_path):
        card = CATALOG.get_method("BEARING_CAPACITY_TERZAGHI").to_dict()
        card["id"] = "TEST_UNPRODUCED"
        card["variables"].append({"key": "m", "name": "missing",
                                  "role": "intermediate", "unit": "kPa"})
        card["variants"][0]["equations"][-1]["sympy"] += " + m"
        (tmp_path / "unproduced.json").write_text(json.dumps(card))
        merged = load_catalog(extra_dir=tmp_path)
        assert "TEST_UNPRODUCED" not in merged.cards
        assert any("unproduced.json" in d and "'m'" in d
                   for d in merged.diagnostics)


class TestBadCardFiles:
    """One unreadable or unparseable card file is one diagnostic."""

    def test_each_bad_file_is_one_diagnostic(self, bad_card_dir):
        merged = load_catalog(extra_dir=bad_card_dir)
        assert sorted(merged.cards) == BUNDLED_IDS
        for name in BAD_CARD_FILES:
            assert len([d for d in merged.diagnostics if name in d]) == 1, name
        assert len(merged.diagnostics) == len(BAD_CARD_FILES)

    def test_server_starts_on_a_bad_catalog_dir(self, bad_card_dir,
                                                 monkeypatch):
        import geocard.catalog
        from geocard.server import McpServer

        monkeypatch.setenv("GEOCARD_CATALOG_DIR", str(bad_card_dir))
        monkeypatch.setattr(geocard.catalog, "_DEFAULT", None)
        server = McpServer()
        assert sorted(server.catalog.cards) == BUNDLED_IDS
        assert len(server.catalog.diagnostics) == len(BAD_CARD_FILES)


class TestDefaultCatalog:
    def test_import_does_not_build_it(self):
        code = ("import geocard, geocard.catalog as c, geocard.cli, geocard.server; "
                "assert c._DEFAULT is None; "
                "assert c.default_catalog() is c.default_catalog()")
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


class TestNGammaDiscrimination:
    """The conflation failure mode: Terzaghi/Vesic 2(N_q+1)tan(phi) versus
    the EC7 rough-base 2(N_q-1)tan(phi) must stay distinct cards."""

    def test_pinned_values_at_32_degrees(self):
        phi = math.radians(32.0)
        terzaghi = factors("BEARING_CAPACITY_TERZAGHI",
                           "general_shear_failure_strip", phi)
        ec7 = factors("BEARING_CAPACITY_EUROCODE7", "drained", phi)
        # Oracle-pinned (exact expressions at exactly 32 degrees):
        assert terzaghi["N_gamma"] == pytest.approx(30.214652959465663, rel=1e-10)
        assert ec7["N_gamma"] == pytest.approx(27.715175551828356, rel=1e-10)
        # Published working values round to 30.23 / 27.73 via N_q ~ 23.19.
        assert terzaghi["N_gamma"] == pytest.approx(30.23, abs=0.02)
        assert ec7["N_gamma"] == pytest.approx(27.73, abs=0.02)
        # The separation is exactly 4 tan(phi); collapsing the cards fails here.
        assert terzaghi["N_gamma"] - ec7["N_gamma"] == pytest.approx(
            4 * math.tan(phi), rel=1e-10)

    def test_card_sources_differ(self):
        terzaghi = CATALOG.get_method("BEARING_CAPACITY_TERZAGHI")
        ec7 = CATALOG.get_method("BEARING_CAPACITY_EUROCODE7")
        assert {s.title for s in terzaghi.sources}.isdisjoint(
            {s.title for s in ec7.sources})


class TestFactorTablesAgainstOracle:
    """Frozen oracle tables at 20/30/40 degrees for each card's factors."""

    @pytest.mark.parametrize("deg,expected", [
        (20, (6.399393521, 14.83471178, 5.386317987)),
        (30, (18.40112222, 30.13962779, 22.40248627)),
        (40, (64.19520639, 75.31311425, 109.4105473)),
    ])
    def test_terzaghi_factor_table(self, deg, expected):
        got = factors("BEARING_CAPACITY_TERZAGHI", "general_shear_failure_strip",
                      math.radians(deg))
        assert got["N_q"] == pytest.approx(expected[0], rel=1e-9)
        assert got["N_c"] == pytest.approx(expected[1], rel=1e-9)
        assert got["N_gamma"] == pytest.approx(expected[2], rel=1e-9)

    @pytest.mark.parametrize("deg,ngamma", [
        (20, 2.87090846), (30, 15.66804082), (40, 93.69074639),
    ])
    def test_meyerhof_ngamma_table(self, deg, ngamma):
        got = factors("BEARING_CAPACITY_MEYERHOF", "general_shear_vertical",
                      math.radians(deg), B=1.0, L=1e9, D_f=0.0)
        assert got["N_gamma"] == pytest.approx(ngamma, rel=1e-9)

    @pytest.mark.parametrize("deg", [20, 30, 40])
    def test_meyerhof_corrections_match_oracle(self, deg):
        phi = math.radians(deg)
        got = factors("BEARING_CAPACITY_MEYERHOF", "general_shear_vertical",
                      phi, B=2.0, L=4.0, D_f=1.0)
        want = oracles.meyerhof_corrections(phi, 2.0, 4.0, 1.0)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-10), key

    def test_meyerhof_corrections_frozen_at_30(self):
        got = factors("BEARING_CAPACITY_MEYERHOF", "general_shear_vertical",
                      math.radians(30), B=2.0, L=4.0, D_f=1.0)
        assert got["K_p"] == pytest.approx(3.0, rel=1e-9)
        assert got["s_c"] == pytest.approx(1.3, rel=1e-9)
        assert got["s_q"] == pytest.approx(1.15, rel=1e-9)
        assert got["d_c"] == pytest.approx(1.173205081, rel=1e-8)
        assert got["d_q"] == pytest.approx(1.08660254, rel=1e-8)

    def test_meyerhof_low_phi_shape_factors_switch_to_one(self):
        got = factors("BEARING_CAPACITY_MEYERHOF", "general_shear_vertical",
                      math.radians(5), B=2.0, L=4.0, D_f=1.0)
        assert got["s_q"] == 1.0
        assert got["d_q"] == 1.0
        assert got["s_c"] > 1.0  # s_c has no 10-degree switch

    @pytest.mark.parametrize("deg", [20, 30, 40])
    def test_vesic_corrections_match_oracle(self, deg):
        phi = math.radians(deg)
        got = factors("BEARING_CAPACITY_VESIC", "general", phi,
                      B=2.0, L=4.0, D_f=1.0)
        want = oracles.vesic_corrections(phi, 2.0, 4.0, 1.0)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-10), key

    def test_vesic_corrections_frozen_at_30(self):
        got = factors("BEARING_CAPACITY_VESIC", "general",
                      math.radians(30), B=2.0, L=4.0, D_f=1.0)
        assert got["s_c"] == pytest.approx(1.30526459, rel=1e-8)
        assert got["s_q"] == pytest.approx(1.288675135, rel=1e-8)
        assert got["s_gamma"] == pytest.approx(0.8, rel=1e-9)
        assert got["d_c"] == pytest.approx(1.2, rel=1e-9)
        assert got["d_q"] == pytest.approx(1.144337567, rel=1e-8)

    def test_vesic_deep_embedment_uses_arctan(self):
        got = factors("BEARING_CAPACITY_VESIC", "general",
                      math.radians(30), B=1.0, L=2.0, D_f=3.0)
        assert got["k_depth"] == pytest.approx(math.atan(3.0), rel=1e-12)

    @pytest.mark.parametrize("deg", [20, 30, 40])
    def test_ec7_factors_match_oracle(self, deg):
        phi = math.radians(deg)
        got = factors("BEARING_CAPACITY_EUROCODE7", "drained", phi,
                      B=1.5, L=20.0)
        nq, nc, ng = oracles.ec7_factors(phi)
        shape = oracles.ec7_shape_factors(phi, 1.5, 20.0)
        assert got["N_q"] == pytest.approx(nq, rel=1e-10)
        assert got["N_c"] == pytest.approx(nc, rel=1e-10)
        assert got["N_gamma"] == pytest.approx(ng, rel=1e-10)
        assert got["s_q"] == pytest.approx(shape["s_q"], rel=1e-10)
        assert got["s_c"] == pytest.approx(shape["s_c"], rel=1e-10)
        assert got["s_gamma"] == pytest.approx(shape["s_gamma"], rel=1e-10)

    def test_full_qult_meyerhof_and_vesic_against_oracle(self):
        phi = math.radians(30)
        inputs = dict(phi=phi, c=10.0, gamma=18.0, B=2.0, L=4.0, Df=1.0, q=18.0)
        got_m = factors("BEARING_CAPACITY_MEYERHOF", "general_shear_vertical",
                        phi, c_prime=10.0, gamma=18.0, B=2.0, L=4.0,
                        D_f=1.0, q=18.0)
        assert got_m["q_ult"] == pytest.approx(
            oracles.meyerhof_qult(**inputs), rel=1e-12)
        got_v = factors("BEARING_CAPACITY_VESIC", "general", phi,
                        c_prime=10.0, gamma=18.0, B=2.0, L=4.0,
                        D_f=1.0, q=18.0)
        assert got_v["q_ult"] == pytest.approx(
            oracles.vesic_qult(**inputs), rel=1e-12)
