"""Decay of a three-level emitter strongly coupled to a 1D continuum.

Library layout:

- :mod:`transmon_decay.model` -- level structure, Gaussian mode densities,
  squared couplings.
- :mod:`transmon_decay.quadrature` -- Dawson function, principal-value and
  adaptive integration.
- :mod:`transmon_decay.self_energy` -- first-level shift/width pair.
- :mod:`transmon_decay.spectrum` -- the complex second-level self-energy
  ``sigma2`` in all regimes and the spectral function with adaptive grids.
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
from .quadrature import (
    QuadratureError,
    QuadratureSettings,
    dawson,
    hilbert_gaussian,
    integrate_adaptive,
    pv_integrate,
)
from .self_energy import ShiftWidth, delta1, delta1_pv, gamma1
from .spectrum import (
    Regime,
    SigmaStats,
    SpectralGrid,
    build_grid,
    delta2_full,
    delta2_stable,
    gamma2_full,
    gamma2_stable,
    level2_shift_width,
    shift_width_weak,
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
    DiscretizationSpec,
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
    "dawson",
    "hilbert_gaussian",
    "integrate_adaptive",
    "pv_integrate",
    "ShiftWidth",
    "delta1",
    "delta1_pv",
    "gamma1",
    "Regime",
    "SigmaStats",
    "SpectralGrid",
    "build_grid",
    "delta2_full",
    "delta2_stable",
    "gamma2_full",
    "gamma2_stable",
    "level2_shift_width",
    "shift_width_weak",
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
    "DiscretizationSpec",
    "convergence_report",
    "discrete_self_energy_1",
    "discrete_self_energy_2",
]

__version__ = "0.1.0"
