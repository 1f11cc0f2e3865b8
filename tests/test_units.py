"""Unit registry, dimension algebra, and conversion tests."""

import itertools
import json
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from geocard.errors import (DimensionMismatch, GeocardError, MalformedQuantity,
                            MissingUnit, NonFiniteValue, UnknownUnit)
import geocard.units
from geocard.units import (
    DATA_DIR,
    Dimension,
    Quantity,
    UnitRegistry,
    convert,
    default_registry,
    format_quantity,
    parse_quantity,
    quantity_text,
    split_quantity_text,
    to_magnitude,
)

REG = default_registry()

REQUIRED_UNITS = ["m", "mm", "kPa", "Pa", "MPa", "kN", "N", "kN/m^3",
                  "kN/m", "deg", "radians", "dimensionless"]


class TestRegistry:
    def test_minimum_unit_set_resolves(self):
        for name in REQUIRED_UNITS:
            assert REG.resolve(name).name == name

    def test_documented_aliases(self):
        assert REG.resolve("degree") is REG.resolve("deg")
        assert REG.resolve("radian") is REG.resolve("radians")
        assert REG.resolve("kN/m³") is REG.resolve("kN/m^3")

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnit):
            REG.resolve("furlongs")
        with pytest.raises(UnknownUnit):  # an alias of no unit
            UnitRegistry([], {"x": "nope"})

    def test_compound_unit_strings_rejected(self):
        with pytest.raises(UnknownUnit):
            parse_quantity("3 kN*m")

    def test_loadable_from_json_table(self):
        custom = UnitRegistry.from_json(
            '{"units": [{"name": "dimensionless", "dimension": {}, "scale": 1.0},'
            '{"name": "cm", "dimension": {"length": 1}, "scale": 0.01},'
            '{"name": "root_m", "dimension": {"length": 0.5}, "scale": 1.0}]}')
        assert custom.resolve("cm").scale == 0.01
        root = custom.resolve("root_m").dimension
        assert root.length == Fraction(1, 2) and type(root.length) is Fraction
        assert str(root) == "length^1/2"


class TestParseQuantity:
    def test_paper_angle_example(self):
        q = parse_quantity("30 deg")
        assert q.magnitude == 30.0
        assert q.unit.name == "deg"

    def test_bare_zero_is_dimensionless(self):
        q = parse_quantity("0")
        assert q.magnitude == 0.0
        assert q.unit.name == "dimensionless"

    def test_unit_weight_example(self):
        q = parse_quantity("18 kN/m^3")
        assert q.magnitude == 18.0
        assert q.unit.name == "kN/m^3"
        q2 = parse_quantity("18 kN/m³")
        assert q2.unit is q.unit

    @pytest.mark.parametrize("bad", ["", "deg", "12..5 m", "1 2 m x y",
                                     "--3 m", "NaN-ish"])
    def test_malformed(self, bad):
        with pytest.raises((MalformedQuantity, UnknownUnit)):
            parse_quantity(bad)

    def test_scientific_notation(self):
        assert parse_quantity("1.5e3 kPa").magnitude == 1500.0

    def test_malformed_message_tells_a_value_from_its_text(self):
        # A string is quoted; any other value is written as the JSON a
        # client sent, after its JSON type: a JSON true and the string
        # "True" (a null and "null", a list and its text) differ.
        messages = []
        for value in (True, "True", None, "null", [1, 2], "[1, 2]"):
            with pytest.raises(MalformedQuantity) as err:
                to_magnitude(value, "m", "B")
            messages.append(str(err.value))
        assert messages == [
            "cannot parse quantity from boolean true for input 'B'",
            "cannot parse quantity from 'True' for input 'B'",
            "cannot parse quantity from null for input 'B'",
            "cannot parse quantity from 'null' for input 'B'",
            "cannot parse quantity from array [1, 2] for input 'B'",
            "cannot parse quantity from '[1, 2]' for input 'B'",
        ]
        assert len(set(messages)) == 6

    @pytest.mark.parametrize("value, written", [
        ({"v": "2 m"}, 'object {"v": "2 m"}'), (["ü"], 'array ["ü"]'),
        ({1j}, "{1j}"), ([object], repr([object])), ((1, 2), "(1, 2)")])
    def test_malformed_object_and_non_json_values(self, value, written):
        """An object is JSON too; a value JSON cannot write is its repr."""
        with pytest.raises(MalformedQuantity) as err:
            to_magnitude(value, "m", "B")
        assert str(err.value) == f"cannot parse quantity from {written} for input 'B'"


def test_a_unit_prints_as_its_name():
    assert [str(REG.resolve(name)) for name in ("kN/m^3", "deg")] == ["kN/m^3", "deg"]


@pytest.mark.parametrize("value", [5, 2.0, None, b"2 m"])
def test_split_of_a_value_that_is_no_text_is_malformed(value):
    with pytest.raises(MalformedQuantity):
        split_quantity_text(value)


class TestConvert:
    def test_degrees_to_radians(self):
        q = convert(parse_quantity("30 deg"), REG.resolve("radians"))
        assert q.magnitude == pytest.approx(0.5235987756, abs=1e-9)

    def test_mpa_to_kpa(self):
        q = convert(parse_quantity("1 MPa"), REG.resolve("kPa"))
        assert q.magnitude == pytest.approx(1000.0)

    def test_identity_conversion(self):
        q = Quantity(23.19, REG.resolve("dimensionless"))
        assert convert(q, REG.resolve("dimensionless")).magnitude == 23.19

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            convert(parse_quantity("38 kPa"), REG.resolve("radians"))

    def test_angle_is_not_dimensionless(self):
        with pytest.raises(DimensionMismatch):
            convert(parse_quantity("1 deg"), REG.resolve("dimensionless"))


class TestCheckDimension:
    def test_equal_dimensions(self):
        assert REG.resolve("kPa").dimension == REG.resolve("MPa").dimension

    def test_pressure_vs_length(self):
        assert REG.resolve("kPa").dimension != REG.resolve("m").dimension

    def test_dimensionless_absorbs_in_products(self):
        composed = REG.resolve("kPa").dimension * REG.resolve("dimensionless").dimension
        assert composed == REG.resolve("kPa").dimension

    def test_group_laws(self):
        kpa = REG.resolve("kPa").dimension
        m = REG.resolve("m").dimension
        assert kpa * m == m * kpa
        assert (kpa / kpa).is_dimensionless()
        assert (m ** 2) / m == m


_convertible = st.sampled_from([("m", "mm"), ("kPa", "MPa"), ("kPa", "Pa"),
                                ("deg", "radians"), ("kN", "N")])
_magnitudes = st.floats(min_value=1e-6, max_value=1e6,
                        allow_nan=False, allow_infinity=False)


class TestProperties:
    @given(_magnitudes, _convertible)
    def test_round_trip(self, magnitude, pair):
        a, b = REG.resolve(pair[0]), REG.resolve(pair[1])
        q = Quantity(magnitude, a)
        back = convert(convert(q, b), a)
        assert back.magnitude == pytest.approx(magnitude, rel=1e-12)

    @given(_magnitudes)
    def test_conversion_composition(self, magnitude):
        q = Quantity(magnitude, REG.resolve("MPa"))
        direct = convert(q, REG.resolve("Pa"))
        via_kpa = convert(convert(q, REG.resolve("kPa")), REG.resolve("Pa"))
        assert via_kpa.magnitude == pytest.approx(direct.magnitude, rel=1e-12)

    @given(_magnitudes, st.sampled_from(REQUIRED_UNITS))
    def test_parse_format_identity(self, magnitude, unit_name):
        q = Quantity(magnitude, REG.resolve(unit_name))
        again = parse_quantity(format_quantity(q))
        assert again.unit is q.unit
        assert again.magnitude == q.magnitude

    def test_radian_degree_round_trip_is_exact_scale(self):
        q = Quantity(180.0, REG.resolve("deg"))
        assert convert(q, REG.resolve("radians")).magnitude == pytest.approx(math.pi)


class TestDimensionType:
    def test_pow_with_fractional_exponent(self):
        m = REG.resolve("m").dimension
        assert (m ** 0.5) ** 2 == m

    def test_str_forms(self):
        assert str(Dimension()) == "dimensionless"
        assert "length" in str(REG.resolve("m").dimension)


class TestQuantityTextMemo:
    """``quantity_text`` is the one reader of a quantity string: it keeps
    the last 64 successful reads, keyed on the text and the unit alone, and
    never keeps an error. ``to_magnitude`` names the input of an error."""

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.sampled_from([("mm", "m"), ("deg", "radians"), ("MPa", "kPa"),
                            ("kN/m^3", "kN/m^3"), ("", "dimensionless")]))
    @example(-0.0, ("mm", "m"))
    @example(5e-324, ("deg", "radians"))
    def test_hit_has_the_bits_of_a_miss(self, magnitude, units):
        tag, target = units
        text = f"{magnitude!r} {tag}".strip()
        reference = (convert(parse_quantity(text), REG.resolve(target)).magnitude
                     if tag else float(text))
        quantity_text.cache_clear()
        miss = quantity_text(text, target)
        assert quantity_text.cache_info()[:2] == (0, 1)  # hits, misses
        assert miss[1] == tag and miss[0].hex() == reference.hex()
        if math.isfinite(reference):
            assert to_magnitude(text, target, "x").hex() == reference.hex()
        else:  # 1e308 MPa overflows: the read is kept, the entry rejects it
            with pytest.raises(NonFiniteValue, match="'x'"):
                to_magnitude(text, target, "x")
        assert quantity_text.cache_info()[:2] == (1, 1)

    def test_memo_stays_within_its_bound(self):
        for i in range(10_000):
            assert to_magnitude(f"{i} m", "m", "B") == i
        info = quantity_text.cache_info()
        assert info.maxsize == 64 and info.currsize <= 64

    @pytest.mark.parametrize("text, unit, error, message", [
        ("two m", "m", MalformedQuantity, "cannot parse quantity from 'two m' for input 'B'"),
        ("2 furlong", "m", UnknownUnit, "unknown unit: 'furlong' for input 'B'"),
        ("2 m", "kPa", DimensionMismatch,
         "incompatible dimensions: length vs length^-1·mass·time^-2 (m -> kPa) "
         "for input 'B'"),
        ("1e999 m", "m", NonFiniteValue, "'B' is not a finite number"),
        ("-1e999", "dimensionless", NonFiniteValue, "'B' is not a finite number"),
        ("2", "m", MissingUnit, "value(s) need a unit tag: B")])
    def test_each_error_names_its_input_and_is_not_kept(self, text, unit, error,
                                                         message):
        """A read that fails is not kept; a non-finite or untagged read is,
        and the entry raises its error on every use."""
        quantity_text.cache_clear()  # room to keep a read
        assert to_magnitude("2 m", "m", "B") == 2.0
        assert to_magnitude("2 m", "m", "B") == 2.0  # a hit before each error
        kept = error in (NonFiniteValue, MissingUnit)
        for use in range(2):
            before = quantity_text.cache_info()
            with pytest.raises(error) as err:
                to_magnitude(text, unit, "B")
            assert str(err.value) == message
            after = quantity_text.cache_info()
            hit = kept and use == 1
            assert (after.hits, after.misses, after.currsize) == (
                before.hits + hit, before.misses + (not hit),
                before.currsize + (kept and use == 0))

    def test_one_string_for_two_inputs_is_read_once(self):
        quantity_text.cache_clear()
        phi = to_magnitude("30 deg", "radians", "phi_prime")
        assert to_magnitude("30 deg", "radians", "phi_prime_d") == phi
        info = quantity_text.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        for key in ("a", "b"):
            with pytest.raises(UnknownUnit) as err:
                to_magnitude("2 furlong", "m", key)
            assert str(err.value) == f"unknown unit: 'furlong' for input {key!r}"
        assert quantity_text.cache_info().currsize == info.currsize

    def test_without_a_key_the_unknown_unit_names_no_input(self):
        with pytest.raises(UnknownUnit) as err:
            parse_quantity("2 furlong")
        assert str(err.value) == "unknown unit: 'furlong'"


_TABLE = json.loads((DATA_DIR / "units.json").read_text("utf-8"))
_UNIT_NAMES = [entry["name"] for entry in _TABLE["units"]]
# Every tag of the bundled registry, its aliases included, a bare number
# and unknown names; every card unit, and an unknown one.
_TAGS = _UNIT_NAMES + sorted(_TABLE["aliases"]) + ["", "furlong", "kN*m"]
_CARD_UNITS = _UNIT_NAMES + ["furlong"]


def _read_through_convert(text: str, unit_name: str) -> tuple[float, str]:
    """The reference read of a quantity string: the tagged magnitude built
    as a Quantity in its unit and passed through ``convert``."""
    magnitude, tag = split_quantity_text(text)
    if tag:
        registry = default_registry()
        magnitude = convert(Quantity(magnitude, registry.resolve(tag)),
                            registry.resolve(unit_name)).magnitude
    return magnitude, tag


def _outcome(read, text: str, unit_name: str) -> tuple:
    """The bits of the magnitude and the tag, or the error's class and text."""
    try:
        magnitude, tag = read(text, unit_name)
    except GeocardError as exc:
        return type(exc), str(exc)
    return struct.pack("<d", magnitude), tag


class TestQuantityTextConverts:
    """``quantity_text`` converts with the two units' scales and builds no
    Quantity; each read equals ``convert``'s bit for bit, and each error
    is ``convert``'s, class and message."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=3))
    @example([-0.0, 5e-324, 1.7976931348623157e308, 30.0])
    def test_every_tag_and_card_unit_reads_as_convert(self, magnitudes):
        read = quantity_text.__wrapped__  # past the memo, so each read runs
        for magnitude, tag, unit_name in itertools.product(magnitudes, _TAGS, _CARD_UNITS):
            text = f"{magnitude!r} {tag}"
            assert _outcome(read, text, unit_name) == _outcome(
                _read_through_convert, text, unit_name), (text, unit_name)

    def test_scales_are_kept_once_per_pair_that_resolves(self, monkeypatch):
        """After every tag and card unit is read, the scales are kept for
        each pair of one dimension alone: at most (registry names +
        aliases) × card units entries."""
        monkeypatch.setattr(geocard.units, "_SCALES", {})
        for tag, unit_name in itertools.product(_TAGS, _CARD_UNITS):
            _outcome(quantity_text.__wrapped__, f"2.5 {tag}", unit_name)
        names = _UNIT_NAMES + sorted(_TABLE["aliases"])
        assert set(geocard.units._SCALES) == {
            (tag, unit_name) for tag in names for unit_name in _UNIT_NAMES
            if REG.resolve(tag).dimension == REG.resolve(unit_name).dimension}
        assert len(geocard.units._SCALES) <= len(names) * len(_UNIT_NAMES)

    @pytest.mark.parametrize("tag, unit_name, error, message", [
        ("furlong", "m", UnknownUnit, "unknown unit: 'furlong'"),
        ("m", "furlong", UnknownUnit, "unknown unit: 'furlong'"),
        ("m", "kPa", DimensionMismatch,
         "incompatible dimensions: length vs length^-1·mass·time^-2 (m -> kPa)")])
    def test_an_error_is_raised_again_and_never_kept(self, monkeypatch, tag, unit_name,
                                                     error, message):
        monkeypatch.setattr(geocard.units, "_SCALES", {})
        for _ in range(2):
            assert _outcome(quantity_text.__wrapped__, f"2 {tag}", unit_name) == (
                error, message)
            assert geocard.units._SCALES == {}

    def test_errors_are_converts(self):
        assert _outcome(quantity_text.__wrapped__, "2 m", "kPa") == (
            DimensionMismatch,
            "incompatible dimensions: length vs length^-1·mass·time^-2 (m -> kPa)")
        assert _outcome(quantity_text.__wrapped__, "2 furlong", "m") == (
            UnknownUnit, "unknown unit: 'furlong'")
        assert _outcome(quantity_text.__wrapped__, "2 m", "furlong") == (
            UnknownUnit, "unknown unit: 'furlong'")
