# The card equation language: a closed grammar, not a Python subset.
#
# Card equations are parsed into an AST by a recursive-descent parser with
# a fixed function allowlist, then evaluated by walking the tree with math
# primitives. There is no eval(), no attribute access, no strings, and no
# way to call anything outside the allowlist.

import math

from geocard import expression as ex
from geocard.errors import GeocardError

# The canonical bearing-capacity factor, exactly as written in a card:
nq_text = "exp(pi*tan(phi_prime))*tan(pi/4 + phi_prime/2)**2"
node = ex.parse(nq_text)
print("free symbols:", ex.free_symbols(node))
print("N_q(30 deg) =", ex.evaluate(node, {"phi_prime": math.radians(30)}))

# Piecewise takes the first branch whose condition holds.
nc_text = "Piecewise(((N_q - 1)*cot(phi_prime), phi_prime > 1e-8), (5.14, True))"
nc = ex.parse(nc_text)
print("N_c(0)      =", ex.evaluate(nc, {"phi_prime": 0.0, "N_q": 1.0}))

# Printing an AST gives text that re-parses to the identical tree.
printed = ex.to_text(node)
print("round trip ok:", ex.parse(printed) == node)

# Hostile input never yields an evaluable AST.
for hostile in ["__import__('os')", "().__class__", "lambda x: x",
                "open('/etc/passwd')", "x = 42"]:
    try:
        ex.parse(hostile)
        print("UNEXPECTEDLY PARSED:", hostile)
    except GeocardError as exc:
        print(f"rejected {hostile!r}: {type(exc).__name__}")
