"""Spectral triplet when the intermediate level itself decays.

At full coupling (L2 = 6, L1 = 4) the second-level self-energy acquires a
finite imaginary part everywhere: the doublet peaks of the stable case widen
by orders of magnitude and a third, broad peak appears at the bare energy.
The script builds the full-coupling spectrum, prints the triplet, and shows
the weak-coupling (constant self-energy) approximation for contrast.
"""

import numpy as np

from transmon_decay import (
    CouplingConfig,
    DimensionlessModel,
    Regime,
    build_grid,
    find_peaks,
    find_roots,
    fwhm,
    sigma2,
    spectral_callable,
)

model = DimensionlessModel(a=50.0, b=98.5)
coupling = CouplingConfig.transmon_ratio(6.0)  # L1 = (2/3) L2 = 4

print("building the full-coupling spectral grid (one Gauss-Kronrod sum over all energies) ...")
grid = build_grid(model, coupling, Regime.FULL)
print(f"  {len(grid.energies)} energy points")

roots = find_roots(model, coupling, Regime.FULL)
peaks = [p for p in find_peaks(grid, roots) if p.height > 0.05 * float(grid.u_ff.max())]
u = spectral_callable(model, coupling, Regime.FULL)

print("\nspectral triplet:")
for p in sorted(peaks, key=lambda r: r.y_r):
    w = fwhm(p, u)
    print(
        f"  y_r - b = {p.y_r - model.b:+.4f}   height = {p.height:.4f}"
        f"   FWHM = {w.width:.4f}"
    )

weak = sigma2(model.b, model, coupling, Regime.WEAK)  # Delta_2 - i Gamma_2/2, frozen at y = b
print(
    f"\nweak-coupling constants at y = b: shift = {weak.real:+.3e}, "
    f"width = {-2.0 * weak.imag:.4f}"
)
print(
    "a single Lorentzian of that width misses the triplet entirely; "
    "the full energy dependence is essential at this coupling"
)
print(f"spectral norm: {np.trapezoid(grid.u_ff, grid.energies):.6f}")
