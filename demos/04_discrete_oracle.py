"""Convergence of discrete-mode sums to the continuum results.

Replacing the continuum by equally spaced modes and summing over them is
nearly impossible to get wrong, which makes it a strong cross-check on the
quadrature pipeline.  The table below shows the worst-case deviation of
the discrete second-level self-energy from the continuum values as the mode
spacing shrinks.
"""

from transmon_decay import CouplingConfig, DimensionlessModel, convergence_report

model = DimensionlessModel(a=50.0, b=98.5)
coupling = CouplingConfig.transmon_ratio(1.0)  # L2 = 1, L1 = 2/3

energies = [model.b - 1.0, model.b - 0.5, model.b, model.b + 0.7, model.b + 1.6]
spacings = [0.04, 0.02, 0.01, 0.005]

print("summing discrete modes (finest spacing: 4300 modes) ...\n")
report = convergence_report(energies, spacings, model, coupling)
print(report.as_table())
print(f"\nmonotone convergence: {report.monotone}")
