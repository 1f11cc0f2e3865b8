# Quantities, units, and dimensional checking.
#
# Every number that crosses a module boundary in geocard is a Quantity:
# a magnitude plus a unit from the registry. Angle is tracked as its own
# pseudo-dimension, so degrees can never silently stand in for radians.

from geocard import convert, default_registry, parse_quantity
from geocard.errors import DimensionMismatch, UnknownUnit

reg = default_registry()

# Parse unit-tagged strings the way tool inputs arrive.
phi = parse_quantity("30 deg")
gamma = parse_quantity("18 kN/m^3")
width = parse_quantity("2000 mm")
print("parsed:", phi, "|", gamma, "|", width)

# Conversion preserves the physical value.
print("30 deg ->", convert(phi, reg.resolve("radians")))
print("2000 mm ->", convert(width, reg.resolve("m")))
print("1 MPa  ->", convert(parse_quantity("1 MPa"), reg.resolve("kPa")))

# Dimensions compose as exponent vectors: kN/m^3 times m is a pressure.
# This is the algebra the card audit (validate_dimensions) runs on every
# equation; quantities themselves carry no arithmetic.
pressure = gamma.unit.dimension * width.unit.dimension
print("dim(gamma * B) =", pressure)
print("gamma * B has the dimension of kPa:",
      pressure == reg.resolve("kPa").dimension)
print("gamma * B has the dimension of kN:",
      pressure == reg.resolve("kN").dimension)

# Mismatched dimensions are an error, not a warning.
try:
    convert(parse_quantity("38 kPa"), reg.resolve("radians"))
except DimensionMismatch as exc:
    print("rejected:", exc)

# And the angle pseudo-dimension means even 'dimensionless' will not pass
# where an angle is required.
try:
    convert(parse_quantity("0.66"), reg.resolve("radians"))
except DimensionMismatch as exc:
    print("rejected:", exc)

# The registry is a closed list; compound expressions are not unit names.
try:
    parse_quantity("3 kN*m")
except UnknownUnit as exc:
    print("rejected:", exc)
