"""Decay of a three-level emitter strongly coupled to a 1D continuum.

Library layout:

- :mod:`transmon_decay.model` -- level structure, Gaussian mode densities,
  squared couplings.
- :mod:`transmon_decay.spectrum` -- the complex self-energies ``sigma1``
  (first level) and ``sigma2`` (second level, all regimes), each
  ``shift - i width/2``, the tolerances of the FULL lattice sum
  (``QuadratureSettings``) and ``QuadratureError``, and the spectral function
  with adaptive grids.
- :mod:`transmon_decay.resonances` -- roots, peaks, FWHM, coupling sweeps.
- :mod:`transmon_decay.time_domain` -- survival amplitude and Rabi metrics.
- :mod:`transmon_decay.discrete` -- brute-force discrete-mode oracle.
- :mod:`transmon_decay.cli` -- reproducible CSV/JSON command line surface.
"""

from .model import (
    CouplingConfig,
    DimensionlessModel,
    ModelError,
    PhysicalParams,
    coupling_sq,
)
from .spectrum import (
    QuadratureError,
    QuadratureSettings,
    Regime,
    SigmaStats,
    SpectralGrid,
    build_grid,
    sigma1,
    sigma2,
    spectral_function,
)
from .resonances import (
    FwhmResult,
    ResonanceRecord,
    SweepResult,
    find_peaks,
    find_roots,
    fwhm,
    spectral_callable,
    sweep_coupling,
)
from .time_domain import RabiMetrics, SurvivalSeries, rabi_metrics, survival_amplitude
from .discrete import (
    ConvergenceReport,
    convergence_report,
    discrete_self_energy_1,
    discrete_self_energy_2,
)

__all__ = [
    "CouplingConfig",
    "DimensionlessModel",
    "ModelError",
    "PhysicalParams",
    "coupling_sq",
    "QuadratureError",
    "QuadratureSettings",
    "Regime",
    "SigmaStats",
    "SpectralGrid",
    "build_grid",
    "sigma1",
    "sigma2",
    "spectral_function",
    "FwhmResult",
    "ResonanceRecord",
    "SweepResult",
    "find_peaks",
    "find_roots",
    "fwhm",
    "spectral_callable",
    "sweep_coupling",
    "RabiMetrics",
    "SurvivalSeries",
    "rabi_metrics",
    "survival_amplitude",
    "ConvergenceReport",
    "convergence_report",
    "discrete_self_energy_1",
    "discrete_self_energy_2",
]

__version__ = "0.1.0"
