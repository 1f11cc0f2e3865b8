"""Physical quantities, units, and dimensional compatibility checks.

Dimensions are exponent vectors over four bases: length, mass, time, and
angle. Angle is tracked as its own pseudo-dimension so that degree/radian
conversion is always explicit — a quantity tagged ``deg`` can never be
silently consumed where ``radians`` are expected.

The registry is a flat table of named units, each with a dimension and a
scale factor to the coherent SI value of that dimension. It is loaded from
a JSON table (a bundled default ships with the package) and is immutable
after construction, so all operations here are pure and thread-safe.
``default_registry`` is the bundled one, built once per process by
``functools.cache``; ``default_registry.cache_clear()`` resets it.

``quantity_text`` is the one reader of a request's quantity strings: it
keeps its last 64 successful reads, and converts as ``convert`` does, by
scales resolved once per (tag, unit). A reader's error says what is
wrong; ``to_magnitude``, the entry of every input value, names the input.
There a number is in card units; text names any unit but ``dimensionless``.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Mapping
from functools import cache, lru_cache
from pathlib import Path

from .errors import (DimensionMismatch, GeocardError, MalformedQuantity,
                     MissingUnit, NonFiniteValue, UnknownUnit)
from .record import FrozenRecord

BASES = ("length", "mass", "time", "angle")

DATA_DIR = Path(__file__).parent / "data"  # bundled units, cards, scenarios, skills


class Dimension(FrozenRecord):
    """Signed rational exponents over the base dimensions: each an int, or
    a ``Fraction`` when it is not integral. An integral ``Fraction``
    equals, hashes and prints as its int."""

    __slots__ = BASES
    _defaults = dict.fromkeys(BASES, 0)

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(
            self.length + other.length,
            self.mass + other.mass,
            self.time + other.time,
            self.angle + other.angle,
        )

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(
            self.length - other.length,
            self.mass - other.mass,
            self.time - other.time,
            self.angle - other.angle,
        )

    def __pow__(self, exponent) -> "Dimension":
        if self.is_dimensionless():
            return self
        from fractions import Fraction  # off the catalog's import path
        p = Fraction(exponent).limit_denominator(1000)
        return Dimension(self.length * p, self.mass * p, self.time * p, self.angle * p)

    def is_dimensionless(self) -> bool:
        return not (self.length or self.mass or self.time or self.angle)

    def is_angle_like(self) -> bool:
        """Pure angle or dimensionless: admissible to transcendental functions."""
        return not (self.length or self.mass or self.time)

    def __str__(self) -> str:
        parts = []
        for base in BASES:
            exp = getattr(self, base)
            if exp:
                parts.append(base if exp == 1 else f"{base}^{exp}")
        return "·".join(parts) if parts else "dimensionless"


DIMENSIONLESS = Dimension()


class Unit(FrozenRecord):
    """A named unit: dimension plus scale factor to coherent SI."""

    __slots__ = ("name", "dimension", "scale")

    # Its own __init__: it checks the scale.
    def __init__(self, name: str, dimension: Dimension, scale: float):
        if scale <= 0:
            raise ValueError(f"unit {name!r} must have positive scale")
        super().__init__(name, dimension, scale)

    def __str__(self) -> str:
        return self.name


class Quantity(FrozenRecord):
    """A magnitude tagged with a unit; the numeric currency between modules."""

    __slots__ = ("magnitude", "unit")

    def __str__(self) -> str:
        return format_quantity(self)


def convert(q: Quantity, target: Unit) -> Quantity:
    """Re-express ``q`` in ``target`` units, preserving the physical value."""
    scales = _scales(q.unit, target)
    return Quantity(q.magnitude * scales[0] / scales[1], target) if scales else q


def _scales(unit: Unit, target: Unit) -> tuple:
    """``(unit.scale, target.scale)``, by which a magnitude in ``unit`` is
    multiplied and then divided to read in ``target``; ``()`` when the two
    are one unit. Across dimensions it raises DimensionMismatch."""
    if unit.dimension != target.dimension:
        raise DimensionMismatch(unit.dimension, target.dimension,
                                f"{unit.name} -> {target.name}")
    return () if unit == target else (unit.scale, target.scale)


class UnitRegistry:
    """Immutable name -> Unit table with a small alias map."""

    def __init__(self, units: Iterable[Unit], aliases: Mapping[str, str] = ()):
        self._units = {u.name: u for u in units}
        self._aliases = dict(aliases or {})
        for alias, canonical in self._aliases.items():
            if canonical not in self._units:
                raise UnknownUnit(canonical)

    def resolve(self, name: str) -> Unit:
        try:
            return self._units[self._aliases.get(name, name)]
        except KeyError:
            raise UnknownUnit(name) from None

    @property
    def dimensionless(self) -> Unit:
        return self._units["dimensionless"]

    @classmethod
    def from_json(cls, text: str) -> "UnitRegistry":
        table = json.loads(text)
        units = []
        for entry in table["units"]:
            exps = entry.get("dimension", {})
            dim = Dimension(**{base: _exponent(exps.get(base, 0)) for base in BASES})
            units.append(Unit(entry["name"], dim, float(entry["scale"])))
        return cls(units, table.get("aliases", {}))

    @classmethod
    def bundled(cls) -> "UnitRegistry":
        return cls.from_json((DATA_DIR / "units.json").read_text("utf-8"))


def _exponent(value):
    """A unit table's exponent: an int as it is, anything else a Fraction."""
    if type(value) is int:
        return value
    from fractions import Fraction
    return Fraction(value)


_NUMBER_RE = re.compile(r"^\s*([+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*)$")


def split_quantity_text(text: str) -> tuple[float, str]:
    """Split ``"<number> <unit-name>"`` into (magnitude, unit name).

    The unit name is the empty string for a bare number; callers that
    distinguish bare numbers from explicitly dimensionless quantities
    need this distinction, which Quantity no longer carries.
    """
    if not isinstance(text, str):
        raise MalformedQuantity(text)
    match = _NUMBER_RE.match(text)
    if not match or not match.group(1):
        raise MalformedQuantity(text)
    return float(match.group(1)), match.group(2).strip()


def parse_quantity(text: str) -> Quantity:
    """Parse ``"<number> <unit-name>"``; a bare number is dimensionless.

    Unit names are case-sensitive registry names or documented aliases
    (``deg``/``degree``, ``kN/m^3`` = ``kN/m³``). Compound unit expressions
    such as ``"kN*m"`` are not part of the format and raise UnknownUnit.
    """
    registry = default_registry()
    magnitude, unit_name = split_quantity_text(text)
    if not unit_name:
        return Quantity(magnitude, registry.dimensionless)
    return Quantity(magnitude, registry.resolve(unit_name))


def for_input(exc: GeocardError, key: str) -> GeocardError:
    """A reader's error ``exc``, its message now naming the input ``key``."""
    exc.args = (f"{exc} for input {key!r}",)
    return exc


def to_magnitude(value, unit_name: str, key: str) -> float:
    """Finite magnitude of a wire value in the unit ``unit_name``.

    Accepts a Quantity, a number in that unit, or text (read by
    ``quantity_text``) that names its unit unless the unit is ``dimensionless``.
    Anything else is MalformedQuantity, and a MissingUnit, a DimensionMismatch
    or an UnknownUnit is raised as it is read; each is named by ``key``.
    This is the one finiteness check of an input: a NaN, an infinity or an
    overflow, in a string or a number, is NonFiniteValue naming ``key``.
    """
    if type(value) is float and math.isfinite(value):
        return value
    try:
        if isinstance(value, str):
            magnitude, tag = quantity_text(value, unit_name)
            if not tag and unit_name != "dimensionless":
                raise MissingUnit([key])
        else:
            if isinstance(value, Quantity):
                value = convert(value, default_registry().resolve(unit_name)).magnitude
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise MalformedQuantity(value)
            magnitude = float(value)
    except (MalformedQuantity, UnknownUnit, DimensionMismatch) as exc:
        raise for_input(exc, key)
    except OverflowError:  # an int too large for a float
        magnitude = math.inf
    if not math.isfinite(magnitude):
        raise NonFiniteValue(key)
    return magnitude


@lru_cache(maxsize=64)
def quantity_text(text: str, unit_name: str) -> tuple[float, str]:
    """(magnitude in ``unit_name``, unit tag) of a quantity string, the tag
    empty for a bare number. The magnitude may be a NaN or an infinity;
    ``to_magnitude`` rejects it.

    The result depends on its arguments alone, so the last 64 successful
    reads are kept: a client sends the same strings again within one task
    (one footing to several variants, one scenario to a check and a
    design, one angle to two inputs), and 64 hold a task's strings, while
    a larger memo kept more memory for almost no more hits. An error is
    raised, never kept, and names no input.
    """
    magnitude, tag = split_quantity_text(text)
    if tag:  # convert's check and arithmetic, with no Quantity built
        scales = _SCALES.get((tag, unit_name))
        if scales is None:  # resolved once per pair; an error is never kept
            registry = default_registry()
            scales = _SCALES[tag, unit_name] = _scales(
                registry.resolve(tag), registry.resolve(unit_name))
        if scales:  # () when the tag names the unit itself
            magnitude = magnitude * scales[0] / scales[1]
    return magnitude, tag


# quantity_text's (tag, unit name) -> scales; only pairs that resolve, so bounded.
_SCALES: dict[tuple[str, str], tuple] = {}


def format_quantity(q: Quantity) -> str:
    """Inverse of parse_quantity on registry units."""
    if q.unit.dimension.is_dimensionless() and q.unit.name == "dimensionless":
        return repr(q.magnitude)
    return f"{q.magnitude!r} {q.unit.name}"


@cache
def default_registry() -> UnitRegistry:
    """The bundled registry, loaded once per process on first use."""
    return UnitRegistry.bundled()
