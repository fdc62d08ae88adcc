"""Seeded wind-scenario generator on the med-b network.

Construction.  The ten med-b fixture scenarios fall into two wind regimes:
windy days near nameplate output and calm days with an evening lull.  They
are split at the median of their total wind energy, and each regime's base
profile is the per-(farm, period) mean of its scenarios.  Scenario ``i`` of
a generated set then

1. draws its regime with probability 1/2 each,
2. multiplies every (farm, period) value of that base profile by an
   independent factor ``1 + NOISE * N(0, 1)``, and
3. clips the result to ``[0, farm capacity]``.

Scenarios are equiprobable and named ``g000, g001, ...``.  The same seed
gives the same set; the solver receives only the resulting ``ScenarioSet``.
"""

from __future__ import annotations

import numpy as np

from sucbenders.data import ScenarioSet, SystemInstance

NOISE = 0.1


def regime_profiles(instance: SystemInstance, base: ScenarioSet) -> np.ndarray:
    """Windy and calm base profiles, shape 2 x (|J| * T), farm-major."""
    wind = base.wind_matrix(instance)
    energy = wind.sum(axis=1)
    windy = energy >= np.median(energy)
    return np.stack([wind[windy].mean(axis=0), wind[~windy].mean(axis=0)])


def generate(instance: SystemInstance, base: ScenarioSet, n_scenarios: int,
             rng: np.random.Generator) -> ScenarioSet:
    """``n_scenarios`` equiprobable scenarios drawn as the module doc says."""
    profiles = regime_profiles(instance, base)
    T = instance.horizon
    caps = np.repeat([w.capacity for w in instance.wind_farms], T)
    regime = rng.integers(0, 2, n_scenarios)
    factors = 1.0 + NOISE * rng.standard_normal((n_scenarios, profiles.shape[1]))
    values = np.clip(profiles[regime] * factors, 0.0, caps)
    ids = tuple(f"g{i:03d}" for i in range(n_scenarios))
    realizations = {}
    for sid, row in zip(ids, values):
        for j, farm in enumerate(instance.wind_farms):
            for t in range(1, T + 1):
                realizations[(sid, farm.id, t)] = float(row[j * T + t - 1])
    return ScenarioSet(ids, (1.0 / n_scenarios,) * n_scenarios, realizations)
