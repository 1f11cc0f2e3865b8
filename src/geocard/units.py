"""Physical quantities, units, and dimensional compatibility checks.

Dimensions are exponent vectors over four bases: length, mass, time, and
angle. Angle is tracked as its own pseudo-dimension so that degree/radian
conversion is always explicit — a quantity tagged ``deg`` can never be
silently consumed where ``radians`` are expected.

The registry is a flat table of named units, each with a dimension and a
scale factor to the coherent SI value of that dimension. It is loaded from
a JSON table (a bundled default ships with the package) and is immutable
after construction, so all operations here are pure and thread-safe.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from pathlib import Path

from .errors import DimensionMismatch, MalformedQuantity, NonFiniteValue, UnknownUnit
from .record import FrozenRecord, set_field

BASES = ("length", "mass", "time", "angle")

DATA_DIR = Path(__file__).parent / "data"  # bundled units, cards, scenarios, skills


_ZERO = Fraction(0)


class Dimension(FrozenRecord):
    """Signed rational exponents over the base dimensions."""

    __slots__ = BASES

    def __init__(self, length: Fraction = _ZERO, mass: Fraction = _ZERO,
                 time: Fraction = _ZERO, angle: Fraction = _ZERO):
        set_field(self, "length", length)
        set_field(self, "mass", mass)
        set_field(self, "time", time)
        set_field(self, "angle", angle)

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

    def __init__(self, name: str, dimension: Dimension, scale: float):
        if scale <= 0:
            raise ValueError(f"unit {name!r} must have positive scale")
        set_field(self, "name", name)
        set_field(self, "dimension", dimension)
        set_field(self, "scale", scale)

    def __str__(self) -> str:
        return self.name


class Quantity(FrozenRecord):
    """A magnitude tagged with a unit; the numeric currency between modules."""

    __slots__ = ("magnitude", "unit")

    def __init__(self, magnitude: float, unit: Unit):
        set_field(self, "magnitude", magnitude)
        set_field(self, "unit", unit)

    def __str__(self) -> str:
        return format_quantity(self)


def convert(q: Quantity, target: Unit) -> Quantity:
    """Re-express ``q`` in ``target`` units, preserving the physical value."""
    if q.unit.dimension != target.dimension:
        raise DimensionMismatch(q.unit.dimension, target.dimension,
                                f"{q.unit.name} -> {target.name}")
    if q.unit == target:
        return q
    return Quantity(q.magnitude * q.unit.scale / target.scale, target)


class UnitRegistry:
    """Immutable name -> Unit table with a small alias map."""

    def __init__(self, units: Iterable[Unit], aliases: Mapping[str, str] = ()):
        self._units = {u.name: u for u in units}
        self._aliases = dict(aliases or {})
        for alias, canonical in self._aliases.items():
            if canonical not in self._units:
                raise UnknownUnit(canonical)

    def resolve(self, name: str) -> Unit:
        key = self._aliases.get(name, name)
        try:
            return self._units[key]
        except KeyError:
            raise UnknownUnit(name) from None

    @property
    def dimensionless(self) -> Unit:
        return self._units["dimensionless"]

    @classmethod
    def from_json(cls, text: str) -> "UnitRegistry":
        table = json.loads(text)
        units = []
        # One Dimension object per dimension, so that convert's check of
        # two registry units is decided by identity, not by four Fractions.
        dimensions: dict[Dimension, Dimension] = {}
        for entry in table["units"]:
            exps = entry.get("dimension", {})
            dim = Dimension(**{
                base: Fraction(exps.get(base, 0)) for base in BASES
            })
            dim = dimensions.setdefault(dim, dim)
            units.append(Unit(entry["name"], dim, float(entry["scale"])))
        return cls(units, table.get("aliases", {}))

    @classmethod
    def bundled(cls) -> "UnitRegistry":
        return cls.from_json((DATA_DIR / "units.json").read_text("utf-8"))


_NUMBER_RE = re.compile(r"^\s*([+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*)$")


def split_quantity_text(text: str) -> tuple[float, str]:
    """Split ``"<number> <unit-name>"`` into (magnitude, unit name).

    The unit name is the empty string for a bare number; callers that
    distinguish bare numbers from explicitly dimensionless quantities
    need this distinction, which Quantity no longer carries.
    """
    if not isinstance(text, str):
        raise MalformedQuantity(repr(text))
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


def to_magnitude(value, unit_name: str, key: str) -> float:
    """Finite magnitude of a wire value in the unit ``unit_name``.

    Accepts a Quantity, a unit-tagged string, or a bare number (also in
    string form), which is trusted as already in that unit. Anything else
    is MalformedQuantity; a NaN, an infinity or an overflow is
    NonFiniteValue, named by ``key``.
    """
    if type(value) is float and math.isfinite(value):
        return value
    registry = default_registry()
    if isinstance(value, str):
        magnitude, tag = split_quantity_text(value)
        value = Quantity(magnitude, registry.resolve(tag)) if tag else magnitude
    if isinstance(value, Quantity):
        value = convert(value, registry.resolve(unit_name)).magnitude
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedQuantity(repr(value))
    try:
        magnitude = float(value)
    except OverflowError:
        magnitude = math.inf
    if not math.isfinite(magnitude):
        raise NonFiniteValue(key)
    return magnitude


def format_quantity(q: Quantity) -> str:
    """Inverse of parse_quantity on registry units."""
    if q.unit.dimension.is_dimensionless() and q.unit.name == "dimensionless":
        return repr(q.magnitude)
    return f"{q.magnitude!r} {q.unit.name}"


_DEFAULT: "UnitRegistry | None" = None


def default_registry() -> UnitRegistry:
    """The bundled registry, loaded once per process."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = UnitRegistry.bundled()
    return _DEFAULT
