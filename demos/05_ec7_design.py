# Eurocode 7 partial-factor design of a strip footing.
#
# The bundled validation scenario is a 21.4 m strip foundation for a
# four-story building (characteristic loads 3500.96 kN permanent,
# 967.10 kN variable, phi'_k = 38 deg). The workflow: preset partial
# factors per Design Approach, characteristic-to-design reduction, ULS
# check V_d <= R_d against the Annex D card, and the required width: the
# least width on a 0.1 mm grid at which the check passes.

import math

from geocard import (
    check_footing_uls_ec7,
    design_footing_width_ec7,
    get_ec7_preset_partials,
    load_bundled_scenario,
)

scenario = load_bundled_scenario("jrc_a3")

print("partial factor presets:")
for da in ("DA1-C1", "DA1-C2", "DA2", "DA3"):
    pf = get_ec7_preset_partials(da)
    print(f"  {da:7s} ({pf.sets}): {pf.wire_dict()}")

# ULS check at a trial width. Characteristic phi' of 38 deg becomes a
# design value near 32 deg under DA1-C2 (the friction angle reduces
# through its tangent).
check = check_footing_uls_ec7(scenario, "DA1-C2", B=1.497)
print(f"\nphi'_k = 38.0 deg -> phi'_d = "
      f"{math.degrees(check.design_parameters['phi_prime_d']):.2f} deg under DA1-C2")
print(f"\nULS check at B = 1.497 m (DA1-C2): V_d = {check.V_d:.2f} kN, "
      f"R_d = {check.R_d:.2f} kN, utilization = {check.utilization:.3f}")
print("bearing factors in the embedded trace:")
for step in check.trace.steps:
    if step["target"].startswith(("N_", "s_")):
        print(f"  {step['target']:8s} = {step['value']:.3f}")

# Width search across all four Design Approaches. DA2 comes out most
# economical and DA3 most conservative; DA1 is governed by combination 2.
# Each result carries its certificate: the check fails one step narrower.
print("\nrequired widths:")
for da in ("DA1-C1", "DA1-C2", "DA2", "DA3"):
    result = design_footing_width_ec7(scenario, da)
    print(f"  {da:7s} B_req = {result.B_req} m "
          f"(utilization {result.check.utilization:.4f}); "
          f"B_below = {result.B_below} m fails "
          f"(utilization {result.utilization_below:.5f}), {result.trials} trials")
