# Evaluating a card: unit-tagged inputs in, auditable trace out.
#
# The engine converts inputs to the card's units, orders the equations by
# dependency, and records every assignment. The same trace renders as
# canonical JSON (for regression diffing) or, from that JSON, a Markdown
# report (for humans), and both carry the card's literature sources.

import json

from geocard import EvaluationRequest, evaluate_card, load_catalog
from geocard.report import render_report

catalog = load_catalog()
card = catalog.get_method("BEARING_CAPACITY_TERZAGHI")

trace = evaluate_card(card, EvaluationRequest(
    card_id=card.id,
    variant_id="general_shear_failure_strip",
    inputs={
        "phi_prime": "30 deg",
        "c_prime": "0 kPa",
        "gamma": "18 kN/m^3",
        "B": "2 m",
        "q": "18 kPa",
    },
))

print("steps:")
for step in trace.steps:
    print(f"  [{step['index']}] {step['target']:8s} = {step['value']:.4f} "
          f"{step['unit']}")
print("q_ult =", trace.outputs["q_ult"])

# Same inputs in different units give the same normalized result.
again = evaluate_card(card, EvaluationRequest(
    card_id=card.id,
    variant_id="general_shear_failure_strip",
    inputs={
        "phi_prime": "0.5235987755982988 radians",
        "c_prime": "0 MPa",
        "gamma": "18 kN/m^3",
        "B": "2000 mm",
        "q": "0.018 MPa",
    },
))
print("unit-invariant:",
      again.outputs["q_ult"].magnitude == trace.outputs["q_ult"].magnitude)

print("\n--- Markdown report -------------------------------------------")
print(render_report(json.loads(trace.to_json()), card))
