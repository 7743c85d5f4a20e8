"""Codimensional Hausdorff contents and regularity verifiers.

Computes set-cover contents (greedy against the exact 0-1 program),
traces the delta-limit toward the codimensional measure, and certifies
two-sided regularity and porosity of a segment inside the unit cube.
"""

import numpy as np

import mmtrace as mt

line = mt.FiniteMetricMeasureSpace(
    weights=np.full(11, 1 / 11), coords=np.linspace(0, 1, 11).reshape(-1, 1), resolution=0.1
)

# cover two separated points: greedy matches the exact optimum here
sol = mt.hausdorff_content(line, mt.ContentQuery([0, 5], theta=0.5, delta=0.3, method="both"))
print("content of {0.0, 0.5} at codimension 1/2:", round(sol.value, 6),
      "optimality gap:", sol.optimality_gap)
print("cover:", [(int(b.center), b.radius) for b in sol.balls])

# the delta-limit: a unit segment inside the cube at codimension 2 costs a
# small multiple of its length
space, pw = mt.generate(mt.simple_case_spec(1 / 16), verify=False)
segment = pw.pieces[1]
trace = mt.hausdorff_measure(space, segment.ids, theta=2.0)
print("\nsegment codimension-2 measure trace:", [round(v, 3) for v in trace.values],
      "stabilized:", trace.stabilized)

# two-sided regularity of the segment: weight sums vs mu(B)/r^theta
k1, k2, ok = mt.check_adr(space, segment, mt.default_r_grid(space))
print(f"segment regularity: kappa1={k1:.3f}, kappa2={k2:.3f}, ok={ok}")

lam = mt.check_lcr(space, segment.ids, segment.theta, [0.5, 0.25])
print(f"lower content regularity constant: {lam:.3f}")

# porosity: the segment admits 1/4-holes at every scale; the whole cube
# admits none
por = mt.porosity_scan(space, segment.ids, sigma=0.25, r_grid=mt.default_r_grid(space))
print("segment 1/4-porous:", por.is_porous)
whole = mt.porosity_scan(space, np.arange(space.n), sigma=0.25, r_grid=[0.25])
print("whole cube 1/4-porous:", whole.is_porous)
print("union porosity constant from per-piece 3/4:", mt.porosity_product_sigma([0.75, 0.75]))
