"""Shared fixtures: the reference model and a session-wide grid cache.

Adaptively refined full-coupling grids are the most expensive objects in the
suite, so they are built once per (l2, regime) pair and shared between the
unit tests and the acceptance module.  Every test starts with an empty cache
of FULL self-energy proxies, so a test that counts the node-sum samples
behind ``sigma2`` does not depend on which test built a proxy before it.
"""

from __future__ import annotations

import pytest

from transmon_decay import (
    CouplingConfig,
    DimensionlessModel,
    QuadratureSettings,
    Regime,
    SpectralGrid,
    build_grid,
    spectrum,
)

A_REF = 50.0
B_REF = 98.5


@pytest.fixture(autouse=True)
def no_cached_proxy():
    spectrum._proxy.cache_clear()


@pytest.fixture(scope="session")
def model() -> DimensionlessModel:
    return DimensionlessModel(a=A_REF, b=B_REF)


@pytest.fixture(scope="session")
def settings() -> QuadratureSettings:
    return QuadratureSettings()


def coupling_for(l2: float, regime: Regime) -> CouplingConfig:
    if regime is Regime.STABLE:
        return CouplingConfig.stable_second_level(l2)
    return CouplingConfig.transmon_ratio(l2)


class GridCache:
    def __init__(self, model: DimensionlessModel, settings: QuadratureSettings):
        self._model = model
        self._settings = settings
        self._cache: dict[tuple[float, Regime], SpectralGrid] = {}

    def get(self, l2: float, regime: Regime) -> SpectralGrid:
        key = (float(l2), regime)
        if key not in self._cache:
            self._cache[key] = build_grid(
                self._model,
                coupling_for(l2, regime),
                regime,
                s=self._settings,
            )
        return self._cache[key]


@pytest.fixture(scope="session")
def grids(model, settings) -> GridCache:
    return GridCache(model, settings)
