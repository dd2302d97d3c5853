"""
Luxemburg norms: Newton against closed forms
============================================

The Luxemburg norm is the smallest scale k making the modular of f/k at most
one.  The laboratory computes it by safeguarded Newton on the log-modular for
every Young kind;
for the power kinds a closed form exists, giving an independent oracle.  This
script compares the two routes and exercises the norm axioms numerically.
"""

import numpy as np

from orliczlab import young
from orliczlab.measure import MeasureSpace
from orliczlab.orlicz import (
    indicator_norm,
    luxemburg_norm,
    luxemburg_norm_closed_form,
    modular,
)

rng = np.random.default_rng(2025)
space = MeasureSpace(rng.uniform(0.1, 10.0, 12))
f = rng.normal(0.0, 3.0, 12)

# ---------------------------------------------------------------------------
# Newton vs closed form on the power kinds.
print("Newton vs closed form:")
for p in (1.5, 2.0, 3.0):
    phi = young.scaled_power(p)
    newton = luxemburg_norm(space, phi, f)
    closed = luxemburg_norm_closed_form(space, phi, f)
    print(f"  scaled_power({p}): Newton {newton:.12f}   closed {closed:.12f}   "
          f"rel diff {abs(newton - closed) / closed:.2e}")

# ---------------------------------------------------------------------------
# exp_type has no closed form; the defining property is still checkable:
# the modular at the returned norm is feasible, slightly below is not.
phi = young.exp_type()
norm = luxemburg_norm(space, phi, f)
print(f"\nexp_type norm {norm:.9f}")
print(f"  modular(f / norm)          = {modular(space, phi, f / norm):.12f}  (<= 1)")
print(f"  modular(f / (0.999*norm))  = {modular(space, phi, f / (0.999 * norm)):.12f}  (> 1)")

# ---------------------------------------------------------------------------
# Indicators: the norm of chi_A is exactly 1 / phi^{-1}(1 / mu(A)).
atoms = np.array([0, 3, 7])
chi = np.zeros(12)
chi[atoms] = 1.0
print("\nindicator norms, formula vs Newton:")
for name, phi in [("power(2)", young.power(2.0)), ("exp_type", young.exp_type())]:
    formula = indicator_norm(space, phi, atoms)
    newton = luxemburg_norm(space, phi, chi)
    print(f"  {name:<10} formula {formula:.12f}   Newton {newton:.12f}")

# ---------------------------------------------------------------------------
# Norm axioms, sampled: homogeneity and the triangle inequality.
phi = young.scaled_power(2.5)
g = rng.normal(0.0, 3.0, 12)
nf, ng, nfg = (luxemburg_norm(space, phi, h) for h in (f, g, f + g))
print(f"\ntriangle inequality: N(f+g) = {nfg:.6f} <= N(f)+N(g) = {nf + ng:.6f}")
print(f"homogeneity: N(3f) = {luxemburg_norm(space, phi, 3 * f):.6f} = 3*N(f) = {3 * nf:.6f}")
