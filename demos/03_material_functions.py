"""Creep compliance and relaxation modulus: fluid-like material functions.

Both start at exactly 1 (instantaneous elasticity), after which the
compliance grows without bound (Newtonian flow term) while the modulus
relaxes completely to zero.  The t = 0 normalization is pinned by the
inverse-square sum over the zeros, independent of where the series is
truncated.
"""

import numpy as np

from besselvisc import creep_compliance, relaxation_modulus, sample_curve

orders = [-0.5, 0.0, 0.5, 1.0]

print("Normalization at t = 0 (tail-corrected):")
for nu in orders:
    print(
        f"  nu={nu:>4}: J(0)={creep_compliance(nu, 0.0):.15f}  "
        f"G(0)={relaxation_modulus(nu, 0.0):.15f}"
    )
print()

grid = np.logspace(-3, 1, 13)
for kind, label in (
    ("creep_compliance", "creep compliance (non-decreasing)"),
    ("relax_modulus", "relaxation modulus (non-increasing)"),
):
    print(f"=== {label} ===")
    print("t".rjust(12) + "".join(f"nu={nu}".rjust(14) for nu in orders))
    curves = [sample_curve(nu, kind, grid) for nu in orders]
    for i, t in enumerate(grid):
        print(f"{t:>12.5f}" + "".join(f"{c.values[i]:>14.6e}" for c in curves))
    print()

print("Long-time creep compliance is affine, 2(nu+2)/(nu+3) + 4(nu+1)(nu+2) t:")
nu = 0.0
for t in (2.0, 5.0, 10.0):
    print(f"  nu=0, t={t}: J={creep_compliance(nu, t):.12f}  affine={4.0/3.0 + 8.0*t:.12f}")
