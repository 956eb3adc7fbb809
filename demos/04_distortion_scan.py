"""Exhaustive distortion and norm-gap scans over bijection-induced
isomorphisms: the order-4 pair, the order-6 pair, and the empirical bound on
the distortion-rigidity constant.

Run with:  python demos/04_distortion_scan.py   (a few seconds)
"""

import collections

import fourierdist as fd

z4 = fd.make_cyclic(4)
z22 = fd.parse_group_spec("Z2xZ2")

# All six canonical bijections of the order-4 pair give norm sqrt(2) in both
# directions (they form a single orbit under automorphisms), so the minimal
# distortion is exactly 2.
result = fd.min_distortion(z4, z22, effort="default")
print("Z4 vs Z2xZ2:")
for rec in result.records:
    print(f"  t = {rec.bijection.map.tolist()}  ||T|| = {rec.report.norm_T:.6f}  "
          f"||T^-1|| = {rec.report.norm_Tinv:.6f}  "
          f"distortion = {rec.report.distortion:.6f}")
print(f"  minimal distortion = {result.min_distortion:.6f}")

bound, per_pair = fd.epsilon_zero_bound([(z4, z22)], effort="default")
print(f"  empirical rigidity bound from this pair: {bound:.6f}")

# The level-2 scan over all 120 canonical bijections of the order-6 pair.
# Computed values are certified lower bounds; the scan checks that no
# bijection is 2-contractive in both directions (the groups would otherwise
# be isomorphic) and that no value falls in the forbidden gap above 1.
z6 = fd.make_cyclic(6)
s3 = fd.make_symmetric(3)
print("\nZ6 vs S3 (120 canonical bijections, level 2)...")
scan = fd.norm_gap_scan(z6, s3, level=2, effort="default", seed=0)
values = [v for r in scan.records for v in r.report.level_k_norms[2]]
hist = collections.Counter(round(v, 6) for v in values)
print("  histogram of level-2 norms:", dict(sorted(hist.items())))
print(f"  minimal distortion over all bijections = {scan.min_distortion:.6f} "
      f"at t = {scan.argmin_distortion.map.tolist()}")
for name, verdict in scan.threshold_verdicts.items():
    kind = "advisory" if verdict.get("advisory") else "hard"
    print(f"  verdict {name:32s} {'PASS' if verdict['passed'] else 'FAIL'} ({kind})")
