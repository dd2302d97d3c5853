"""Numerical laboratory for Orlicz-space analysis of weighted averaging operators.

The package studies the operator T f = E(u f), where E is conditional
expectation onto a finite partition and u a fixed multiplier, through the lens
of Young-function calculus: Luxemburg norms, conditional Hölder inequalities,
norm sandwiches, spectra, resolvents, and compactness trends on refinement
families.
"""

__version__ = "0.1.0"
