"""
Compactness and essential-norm trends on refinement families
============================================================

"Finitely many atoms" is vacuous on one finite space, so infinite-space
phenomena are emulated by families: spaces with 16, 64, then 256 blocks
sharing a block-indexed multiplier law.  Level sets, truncation gaps, and the
essential-norm surrogate then exhibit trends where the theory has limits.
"""

import numpy as np

from orliczlab import young
from orliczlab.operators import (
    RefinementFamily,
    boundedness_classifier,
    essential_gap,
    level_set,
    truncation_gap_check,
)
from orliczlab.suites import TRUNCATION_GAP_TOL

phi = young.scaled_power(2.0)
psi = young.conjugate_closed_form(phi)

# ---------------------------------------------------------------------------
# Level sets of the decaying multiplier u(j) = 1/j: the count of blocks above
# epsilon is floor(1/epsilon), independent of the family size once large.
family = RefinementFamily("reciprocal", (16, 64, 256))
op = family.member(64)
print("level-set counts for u(j) = 1/j at m = 64:")
for eps in (0.5, 0.2, 0.1, 0.05):
    print(f"  epsilon {eps:<5} -> {level_set(op, psi, eps).size} blocks")

# ---------------------------------------------------------------------------
# Truncation: removing the blocks below level epsilon changes the operator by
# at most C * epsilon in norm, C = 4 the squared domination constant of paired
# equal-weight atoms.  The gap estimate is a certified lower bound on the true
# distance, so staying below the bound (up to TRUNCATION_GAP_TOL) is a real check.
def gap_holds(report):
    return report["gap_lower_bound"] <= report["bound"] * (1.0 + TRUNCATION_GAP_TOL)


print("\ntruncation gaps at m = 64:")
for eps in (0.05, 0.2, 0.7):
    report = truncation_gap_check(op, phi, psi, eps, budget=100, seed=1)
    print(f"  epsilon {eps:<5} gap >= {report['gap_lower_bound']:.6f}, "
          f"bound C*eps = {report['bound']:.3f}, holds={gap_holds(report)}")

# ---------------------------------------------------------------------------
# The essential-norm surrogate beta_m: the smallest epsilon whose level set
# fits in a quarter of the blocks.  Decay sends it to zero; flat pins it at 1.
for law in ("reciprocal", "flat"):
    rows = [essential_gap(m_op, phi, psi, seed=0) for _, m_op in RefinementFamily(law, (16, 64, 256)).members]
    betas = [row["beta"] for row in rows]
    decreasing = all(b2 <= b1 * 1.01 for b1, b2 in zip(betas, betas[1:]))
    print(f"\n{law} family: beta_m = [{', '.join(f'{b:.5f}' for b in betas)}]")
    print(f"  decreasing={decreasing}, all gaps hold={all(map(gap_holds, rows))}")

# ---------------------------------------------------------------------------
# The classifier combines the trends into verdicts.  The conditional Hoelder
# inequality (certified by C0^2 on every partition) licenses the boundedness
# criterion; a product-growth certificate for phi, which the classifier looks
# for itself, additionally licenses the compactness criterion.
print("\nclassifier verdicts (bounded, compact):")
for law in ("reciprocal", "flat", "log_growth"):
    fam = RefinementFamily(law, (16, 64, 256))
    verdict = boundedness_classifier(fam, phi, psi)
    print(f"  {law:<12} bounded={verdict['bounded']}, compact={verdict['compact']}, "
          f"level sups {np.round(verdict['level_sups'], 4)}")
