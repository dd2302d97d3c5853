"""
Young functions: evaluation, conjugation, and growth certificates
=================================================================

Every space in this laboratory is built on a Young function: an even convex
function vanishing only at zero and growing faster than any line.  This script
walks the catalog, cross-checks closed-form conjugates against the numeric
Legendre-Fenchel route, and prints the growth certificates that later license
the operator theorems.
"""

import numpy as np

from orliczlab import young

# ---------------------------------------------------------------------------
# The catalog.  power and scaled_power are the Lebesgue-style kinds; exp_type
# and log_type form the canonical non-power conjugate pair.
catalog = {
    "power(2)": young.power(2.0),
    "scaled_power(2)": young.scaled_power(2.0),
    "conjugate_power(3)": young.conjugate_power(3.0),
    "exp_type": young.exp_type(),
    "log_type": young.log_type(),
}

xs = np.array([0.0, 0.5, 1.0, 2.0])
print("values on a few points:")
for name, phi in catalog.items():
    vals = ", ".join(f"{v:.6g}" for v in young.evaluate(phi, xs))
    print(f"  {name:<20} phi([0, 0.5, 1, 2]) = [{vals}]")

# ---------------------------------------------------------------------------
# Conjugation.  The closed-form table says the conjugate of x^p/p is y^q/q;
# the numeric route recomputes sup_x (x*y - phi(x)) from scratch.
print("\nconjugate of scaled_power(1.5) at a few points, two routes:")
phi = young.scaled_power(1.5)
psi = young.conjugate_closed_form(phi)
for y in (0.25, 1.0, 4.0):
    numeric = young.conjugate_numeric(phi, y)
    closed = young.evaluate(psi, y)
    print(f"  y={y:<5} numeric {numeric:.12f}   closed form {closed:.12f}")

# ---------------------------------------------------------------------------
# Inverse round trip: phi(phi^{-1}(t)) = t on the nonnegative axis.
phi = young.exp_type()
ts = np.array([0.01, 0.5, 3.0, 100.0])
back = young.evaluate(phi, young.inverse(phi, ts))
print("\nexp_type inverse round trip:")
for t, b in zip(ts, back):
    print(f"  t={t:<6} phi(phi^-1(t)) = {b:.12g}")

# ---------------------------------------------------------------------------
# Growth certificates.  Each check samples a log grid, demands stability under
# two grid doublings, and returns None when the condition genuinely fails.
print("\ngrowth certificates:")
for name, phi in [("power(2)", young.power(2.0)), ("exp_type", young.exp_type())]:
    d2 = young.check_delta2(phi)
    dp = young.check_delta_prime(phi)
    print(f"  {name}:")
    print(f"    doubling constant: {d2 if d2 is not None else 'absent (sup grows)'}")
    print(f"    product bound constant: {dp if dp is not None else 'absent (sup grows)'}")

# The ordering check certifies phi2(x) <= phi1(a*x) with the smallest grid a.
a_same = young.check_ordering(young.power(2.0), young.power(2.0))
a_cross = young.check_ordering(young.power(2.0), young.power(3.0))
print(f"  power(2) vs itself: a = {a_same}")
print(f"  power(2) dominating power(3): {'absent' if a_cross is None else 'a = %g' % a_cross}")

# ---------------------------------------------------------------------------
# The product inequality x*y <= phi(x) + psi(y) with equality structure.
samples = 10_000
worst = young.young_inequality_check(young.scaled_power(2.0), young.scaled_power(2.0), samples=samples)
print(f"\nproduct inequality over {samples} samples: "
      f"worst violation {worst:.3e} (touching at x=y)")
