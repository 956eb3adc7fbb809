"""Norms, amplified norms, completely bounded norm and Jordan defect of the
isomorphism between the Fourier algebras of Z6 and S3 induced by the
identity-index bijection.

Run with:  python demos/03_induced_isomorphisms.py
"""

import numpy as np

import fourierdist as fd

z6 = fd.make_cyclic(6)
s3 = fd.make_symmetric(3)
t6 = fd.irrep_table_for(z6)
t3 = fd.irrep_table_for(s3)

# T : A(Z6) -> A(S3), T(f) = f o t with t the index-identity bijection.
hom = fd.induced_hom(t6, t3, np.arange(6))
report = fd.hom_norm_report(hom, levels=(1, 2), effort="default", seed=0)
print("induced isomorphism A(Z6) -> A(S3):")
print(f"  ||T||      = {report.norm_T:.9f}")
print(f"  ||T^-1||   = {report.norm_Tinv:.9f}")
print(f"  distortion = {report.distortion:.9f}")
for k, (vt, vi) in sorted(report.level_k_norms.items()):
    print(f"  level {k}:   T {vt:.9f}   T^-1 {vi:.9f}")

# The completely bounded norm is reached at the largest source block
# dimension (Smith's lemma), so levels from there on repeat it; the source
# Z6 is abelian, so here the whole sequence is flat from level 1.
cb = fd.cb_norm(hom, effort=fd.Effort(restarts=12, samples=2048))
print("\ncb-norm stabilization sequence:",
      [f"{v:.6f}" for _, v in cb.levels])

# The Jordan defect measures how far the adjoint is from respecting the
# symmetrized product; a group isomorphism has defect 0, and this map shows
# a defect of at least sqrt(2) already on translation pairs.
iso = fd.induced_hom(t6, t6, np.arange(6))
print("\nJordan defect of an isomorphism :", fd.jordan_defect(iso, samples=64))
print("Jordan defect of the Z6/S3 map  :", fd.jordan_defect(hom, samples=64))

# An anti-automorphism (inversion) is isometric, but its level-2
# amplification behaves like a transpose and reaches the block dimension.
anti = fd.InducedHom(
    bijection=fd.GroupBijection(source=s3, target=s3, map=s3.inverses),
    source_table=t3, target_table=t3)
eff = fd.Effort(restarts=12, samples=2048)
print("\ninversion on S3: level-1 norm =",
      f"{fd.level_k_norm(anti, 1, effort=eff).value:.9f},",
      "level-2 norm =", f"{fd.level_k_norm(anti, 2, effort=eff).value:.9f}")
