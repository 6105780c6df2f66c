"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints exactly one summary line
``ACCEPTANCE <n>: PASS|FAIL | ...`` before asserting, so a plain test run
documents the state of every criterion.  Expensive spectral grids are shared
through the session-scoped cache in ``conftest``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import optimize
from scipy.special import dawsn as dawson

from transmon_decay import (
    CouplingConfig,
    Regime,
    convergence_report,
    find_peaks,
    find_roots,
    fwhm,
    rabi_metrics,
    sigma1,
    sigma2,
    spectral_callable,
    survival_amplitude,
    sweep_coupling,
)
from transmon_decay.spectrum import SpectralGrid

from conftest import coupling_for
from reference_routes import delta1_pv, pv_integrate

SQRT_PI = math.sqrt(math.pi)
L2_VALUES = (0.1, 0.3, 1.0, 6.0)
DELTA_RAD_S = 2 * math.pi * 1e8  # reference continuum width, rad/s


def _report(number: int, checks: list[tuple[str, bool, str]]) -> None:
    ok = all(good for _, good, _ in checks)
    parts = [
        f"{name}: {detail}" + ("" if good else " [FAIL]")
        for name, good, detail in checks
    ]
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} | " + "; ".join(parts)
    print("\n" + line)
    assert ok, line


def _filtered_peaks(grid: SpectralGrid, roots, frac: float = 0.01):
    floor = frac * float(grid.u_ff.max())
    return [p for p in find_peaks(grid, roots) if p.height > floor]


class TestCriterion1:
    def test_stable_doublet(self, model, settings, grids):
        c = CouplingConfig.stable_second_level(6.0)
        grid = grids.get(6.0, Regime.STABLE)
        roots = find_roots(model, c, Regime.STABLE, settings)
        peaks = sorted(_filtered_peaks(grid, roots), key=lambda p: p.y_r)

        checks = []
        checks.append(("two peaks", len(peaks) == 2, f"n={len(peaks)}"))
        lo, hi = peaks[0], peaks[-1]
        x_lo, x_hi = model.b - lo.y_r, hi.y_r - model.b
        checks.append(
            ("symmetric", abs(x_lo - x_hi) < 1e-6, f"|x-|={x_lo:.6f} |x+|={x_hi:.6f}")
        )
        checks.append(
            (
                "equal heights",
                abs(lo.height - hi.height) < 0.01 * hi.height,
                f"{lo.height:.4g}/{hi.height:.4g}",
            )
        )
        checks.append(
            ("location window", 3.3 <= x_hi <= 3.6, f"|y_r-b|={x_hi:.4f} in [3.3, 3.6]")
        )
        for ref in (3.34, 3.35):
            dev = abs(ref - x_hi) / x_hi
            checks.append((f"ref {ref}", dev <= 0.07, f"offset {100 * dev:.1f}% <= 7%"))

        u = spectral_callable(model, c, Regime.STABLE, settings)
        widths = [fwhm(p, u, settings).width for p in (lo, hi)]
        ref_w = 2.4e-4
        for w in widths:
            ratio = max(w / ref_w, ref_w / w)
            checks.append(
                ("fwhm factor 2", ratio <= 2.0, f"{w:.3g} vs {ref_w} (x{ratio:.2f})")
            )
        # residual offset reported with the fixed point of x = 24 D(x)
        x_fp = optimize.brentq(
            lambda x: x - 24.0 * float(dawson(x)), 1.0, 10.0, xtol=1e-12
        )
        assert abs(x_fp - 24.0 * float(dawson(x_fp))) < 1e-10
        checks.append(
            (
                "fixed point",
                True,
                f"x=24 D(x) -> x={x_fp:.10f}, residual offset {x_hi - x_fp:+.3e}",
            )
        )
        _report(1, checks)


class TestCriterion2:
    def test_full_triplet(self, model, settings, grids):
        c = CouplingConfig.transmon_ratio(6.0)
        grid = grids.get(6.0, Regime.FULL)
        roots = find_roots(model, c, Regime.FULL, settings)
        peaks = sorted(_filtered_peaks(grid, roots, frac=0.05), key=lambda p: p.y_r)

        checks = [("three peaks", len(peaks) == 3, f"n={len(peaks)}")]
        locs = [p.y_r - model.b for p in peaks]
        for loc, ref in zip(locs, (-4.48, 0.0, 4.48)):
            if ref == 0.0:
                checks.append(("center", abs(loc) < 0.02, f"{loc:+.4f}"))
            else:
                dev = abs(abs(loc) - abs(ref)) / abs(ref)
                checks.append(
                    (f"loc {ref:+.2f}", dev <= 0.05, f"{loc:+.4f} ({100 * dev:.1f}%)")
                )
        for p, ref in zip(peaks, (0.723, 0.394, 0.723)):
            dev = abs(p.height - ref) / ref
            checks.append(
                (f"height {ref}", dev <= 0.10, f"{p.height:.4f} ({100 * dev:.1f}%)")
            )
        u = spectral_callable(model, c, Regime.FULL, settings)
        for p, ref in zip(peaks, (0.22, 0.68, 0.22)):
            w = fwhm(p, u, settings).width
            dev = abs(w - ref) / ref
            checks.append(
                (f"fwhm {ref}", dev <= 0.15, f"{w:.4f} ({100 * dev:.1f}%)")
            )
        _report(2, checks)


class TestCriterion3:
    def test_crossover(self, model, settings):
        result = sweep_coupling(model, Regime.STABLE, [0.2, 0.35], settings)
        x = result.crossover_estimate
        checks = [
            ("found", x is not None, f"{x}"),
            ("window", x is not None and 0.24 <= x <= 0.30, f"L2={x:.4f} in [0.24, 0.30]"),
        ]
        _report(3, checks)


class TestCriterion4:
    def test_symmetry_suite(self, model, settings):
        checks = []
        for regime in (Regime.STABLE, Regime.WEAK, Regime.FULL):
            for l2 in L2_VALUES:
                c = coupling_for(l2, regime)

                def shift(y):
                    return sigma2(y, model, c, regime, settings).real

                def width(y):
                    return -2.0 * sigma2(y, model, c, regime, settings).imag

                center = abs(shift(model.b))
                odd = max(
                    abs(shift(model.b + x) + shift(model.b - x)) for x in (0.5, 1.0, 3.0)
                )
                even = max(
                    abs(width(model.b + x) - width(model.b - x)) for x in (0.5, 1.0, 3.0)
                )
                scale = max(abs(shift(model.b + 1.0)), width(model.b), 1.0)
                tol = 10.0 * max(settings.abs_tol, settings.rel_tol * scale)
                ok = center < 1e-8 and odd < tol and even < tol
                checks.append(
                    (
                        f"{regime.value} L2={l2}",
                        ok,
                        f"|D2(b)|={center:.1e} odd={odd:.1e} even={even:.1e} tol={tol:.1e}",
                    )
                )
        _report(4, checks)


class TestCriterion5:
    def test_normalization(self, grids):
        checks = []
        for regime in (Regime.STABLE, Regime.FULL):
            for l2 in L2_VALUES:
                grid = grids.get(l2, regime)
                norm = float(np.trapezoid(grid.u_ff, grid.energies))
                checks.append(
                    (
                        f"{regime.value} L2={l2}",
                        abs(norm - 1.0) < 1e-3,
                        f"norm={norm:.6f}",
                    )
                )
        _report(5, checks)


class TestCriterion6:
    def test_dual_route_equality(self, model, settings):
        c = CouplingConfig.transmon_ratio(1.0)
        checks = []
        # first-level shift: Dawson closed form vs generic PV quadrature
        worst1 = 0.0
        for x in np.linspace(-3.0, 3.0, 10):
            y, w = model.b + 0.2, model.b + 0.2 - model.a - x
            worst1 = max(
                worst1,
                abs(
                    sigma1(y, w, model, c).real
                    - delta1_pv(y, w, model, c, settings)
                ),
            )
        checks.append(("Delta1 routes", worst1 < 1e-8, f"max diff {worst1:.2e}"))

        # stable second-level shift: closed form vs PV quadrature
        cs = CouplingConfig.stable_second_level(6.0)
        pref = 2.0 * cs.l2 / SQRT_PI
        worst2 = 0.0
        for x in np.linspace(-4.0, 4.0, 10):
            if abs(x) < 1e-12:
                continue
            pv = pv_integrate(
                lambda v: pref * math.exp(-v * v) / (x - v), x, -math.inf, math.inf, settings
            )
            stable = sigma2(model.b + x, model, cs, Regime.STABLE).real
            worst2 = max(worst2, abs(stable - pv))
        checks.append(("Delta2 stable routes", worst2 < 1e-8, f"max diff {worst2:.2e}"))
        _report(6, checks)


class TestCriterion7:
    def test_oracle_equivalence(self, model, settings):
        c = CouplingConfig.transmon_ratio(1.0)  # L2=1, L1=2/3
        ys = [model.b - 1.0, model.b - 0.5, model.b, model.b + 0.7, model.b + 1.6]
        report = convergence_report(ys, [0.04, 0.02, 0.01, 0.005], model, c, settings)
        final = report.rows[-1].max_rel_err
        checks = [
            ("monotone", report.monotone, "errors decrease with spacing"),
            ("final error", final < 0.02, f"rel err {100 * final:.2f}% at 0.005"),
        ]
        _report(7, checks)


class TestCriterion8:
    def test_time_domain(self, model, settings, grids):
        checks = []

        # stable doublet: beat against the root-splitting prediction
        c6 = CouplingConfig.stable_second_level(6.0)
        grid_s = grids.get(6.0, Regime.STABLE)
        roots = find_roots(model, c6, Regime.STABLE, settings)
        split = roots[-1].y_r - roots[0].y_r
        series = survival_amplitude(grid_s, np.linspace(0.0, 20.0, 4001))
        checks.append(
            (
                "t=0 magnitude",
                abs(series.magnitude[0] - 1.0) < 1e-3,
                f"{series.magnitude[0]:.6f}",
            )
        )
        metrics = rabi_metrics(series)
        predicted = 2 * math.pi / split
        dev = abs(metrics.maxima_spacing - predicted) / predicted
        checks.append(
            (
                "beat vs splitting",
                dev <= 0.02,
                f"spacing {metrics.maxima_spacing:.4f} vs 2pi/dE {predicted:.4f} "
                f"({100 * dev:.2f}%)",
            )
        )
        t_r = metrics.rabi_period / DELTA_RAD_S
        dev_tr = abs(t_r - 3e-9) / 3e-9
        checks.append(
            ("T_R 3 ns", dev_tr <= 0.25, f"{t_r * 1e9:.3f} ns ({100 * dev_tr:.1f}%)")
        )

        # full coupling: envelope decay versus the 7.2 ns reference, two routes
        grid_f = grids.get(6.0, Regime.FULL)
        series_f = survival_amplitude(grid_f, np.linspace(0.0, 15.0, 3001))
        checks.append(
            (
                "t=0 magnitude (full)",
                abs(series_f.magnitude[0] - 1.0) < 1e-3,
                f"{series_f.magnitude[0]:.6f}",
            )
        )
        # the asymptotic envelope is set by the narrow side peaks; the broad
        # central peak dominates early times, so fit only the tail
        tail = survival_amplitude(grid_f, np.linspace(5.0, 20.0, 3001))
        tau_env = rabi_metrics(tail).decay_time / DELTA_RAD_S

        cf = CouplingConfig.transmon_ratio(6.0)
        peaks_f = sorted(
            _filtered_peaks(grid_f, None, frac=0.05), key=lambda p: p.y_r
        )
        u_f = spectral_callable(model, cf, Regime.FULL, settings)
        side_fwhm = fwhm(peaks_f[0], u_f, settings).width
        tau_width = 1.0 / side_fwhm / DELTA_RAD_S

        for name, tau in (("envelope fit", tau_env), ("1/FWHM", tau_width)):
            dev_t = abs(tau - 7.2e-9) / 7.2e-9
            checks.append(
                (
                    f"tau {name}",
                    dev_t <= 0.25,
                    f"{tau * 1e9:.2f} ns vs 7.2 ns ({100 * dev_t:.1f}%)",
                )
            )
        _report(8, checks)


class TestCriterion9:
    def test_synthetic_lorentzian(self, settings):
        gamma = 1e-3
        y0 = 98.5

        def u(y):
            return (gamma / (2 * math.pi)) / ((y - y0) ** 2 + 0.25 * gamma * gamma)

        from transmon_decay import ResonanceRecord

        rec = ResonanceRecord(y_r=y0, kind="peak", height=u(y0))
        width = fwhm(rec, u, settings).width
        checks = [
            (
                "fwhm recovery",
                abs(width - gamma) < 1e-6,
                f"{width:.9f} vs {gamma} (|diff| {abs(width - gamma):.1e})",
            )
        ]

        span = 400.0 * gamma
        y = np.linspace(y0 - span, y0 + span, 40001)
        grid = SpectralGrid(
            energies=y,
            u_ff=np.asarray([u(v) for v in y]),
            gamma2=np.full(len(y), gamma),
            delta2=np.zeros(len(y)),
            refinement_level=np.zeros(len(y), dtype=int),
            y_ref=y0,
        )
        t = np.linspace(0.0, 4.0 / gamma, 201)
        metrics = rabi_metrics(survival_amplitude(grid, t))
        dev = abs(metrics.decay_time - 1.0 / gamma) * gamma
        checks.append(
            (
                "envelope decay",
                dev <= 0.01,
                f"tau {metrics.decay_time:.2f} vs {1.0 / gamma:.0f} ({100 * dev:.2f}%)",
            )
        )
        _report(9, checks)
