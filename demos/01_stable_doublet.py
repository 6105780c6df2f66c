"""Splitting of a stable second level at strong coupling.

With the first transition switched off the second level sees a purely
Gaussian continuum.  Below L2 = 0.25 the resonance condition has one root at
the bare energy; above it the level splits into a symmetric doublet of very
narrow quasistable peaks.  This script locates the doublet at L2 = 6,
measures its widths, and compares the peak position with the fixed point of
x = 4 L2 D(x).
"""

import numpy as np
from scipy import optimize, special

from transmon_decay import (
    CouplingConfig,
    DimensionlessModel,
    Regime,
    build_grid,
    find_peaks,
    find_roots,
    fwhm,
    spectral_callable,
)

model = DimensionlessModel(a=50.0, b=98.5)
coupling = CouplingConfig.stable_second_level(6.0)

print("building the adaptively refined spectral grid ...")
grid = build_grid(model, coupling, Regime.STABLE)
print(f"  {len(grid.energies)} energy points, refined around every peak")

roots = find_roots(model, coupling, Regime.STABLE)
print(f"\nresonance-condition roots (y - b - Delta2(y) = 0):")
for r in roots:
    print(f"  y_r - b = {r.y_r - model.b:+.6f}   U(y_r) = {r.height:.4g}")

peaks = [p for p in find_peaks(grid, roots) if p.height > 0.01 * float(grid.u_ff.max())]
u = spectral_callable(model, coupling, Regime.STABLE)
print("\ndominant spectral peaks:")
for p in peaks:
    w = fwhm(p, u)
    print(
        f"  y_r - b = {p.y_r - model.b:+.6f}   height = {p.height:.4g}"
        f"   FWHM = {w.width:.3e}"
    )

# the peak location is the nonzero fixed point of x = 4 L2 D(x)
x_fp = optimize.brentq(lambda x: x - 24.0 * special.dawsn(x), 1.0, 10.0, xtol=1e-12)
print(f"\nfixed point of x = 24 D(x): x = {x_fp:.10f}")
print(f"spectral norm: {np.trapezoid(grid.u_ff, grid.energies):.6f}")
