"""Consumption and solar-harvest power models plus battery bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from .world import ValidationError


class BatteryDepleted(Exception):
    """Battery would fall below the hard floor E_min."""

    def __init__(self, energy: float, floor: float):
        super().__init__(f"battery {energy:.3f} J below floor {floor:.3f} J")
        self.energy = energy
        self.floor = floor


@dataclass(frozen=True)
class ConsumptionParams:
    """Flight consumption constants; level power applies at the cruise speed."""

    p_level: float = 30.0   # W at cruise speed
    p_up: float = 34.0      # W while climbing
    p_down: float = 26.0    # W while descending
    v: float = 12.0         # m/s cruise
    v_up: float = 3.0       # m/s climb rate
    v_down: float = 3.0     # m/s descent rate

    def __post_init__(self):
        for name in ("p_level", "p_up", "p_down", "v", "v_up", "v_down"):
            if getattr(self, name) <= 0:
                raise ValidationError(name, "must be positive")
        if not self.p_down <= self.p_level <= self.p_up:
            raise ValueError("require p_down <= p_level <= p_up")

    def move(self, distance: float, dz: float) -> Tuple[float, float]:
        """Joules spent and seconds taken to fly `distance` horizontal meters
        while changing altitude by `dz`: the level term plus a climb or
        descent term. Horizontal and vertical components run simultaneously;
        the move lasts as long as the slower component."""
        e_out = self.p_level * distance / self.v
        if dz > 0:
            e_out += self.p_up * dz / self.v_up
            v_vert = self.v_up
        elif dz < 0:
            e_out += self.p_down * (-dz) / self.v_down
            v_vert = self.v_down
        else:
            v_vert = 1.0
        return e_out, max(distance / self.v, abs(dz) / v_vert)


@dataclass(frozen=True)
class HarvestParams:
    """Solar panel and atmosphere constants.

    eta: cell efficiency, g: spectral density (W/m^2), s: panel area (m^2).
    Cloud layer spans [h_down, h_up] with absorption beta_c; alpha_c/delta_c
    parametrize the altitude model.
    """

    eta: float = 0.2
    g: float = 380.0
    s: float = 0.3
    h_up: float = 1000.0
    h_down: float = 700.0
    beta_c: float = 0.01     # 1/m
    alpha_c: float = 0.9     # max atmospheric transmittance exponent
    delta_c: float = 8000.0  # m, scale height

    def __post_init__(self):
        if not 0 < self.eta <= 1:
            raise ValidationError("eta", "must lie in (0, 1]")
        for name in ("g", "s", "delta_c"):
            if getattr(self, name) <= 0:
                raise ValidationError(name, "must be positive")
        if self.beta_c < 0:
            raise ValidationError("beta_c", "must be nonnegative")
        if not self.h_down < self.h_up:
            raise ValueError("require h_down < h_up")

    @property
    def peak_power(self) -> float:
        return self.eta * self.g * self.s


class HarvestModel(Enum):
    CLEAR = "clear"
    CLOUD = "cloud"
    ALTITUDE = "altitude"


def incidence_cosine(bank: float, heading: float, azimuth: float, elevation: float) -> float:
    """Cosine of the sun-ray incidence angle on the panel normal."""
    return (math.cos(bank) * math.sin(elevation)
            - math.cos(elevation) * math.sin(azimuth - heading) * math.sin(bank))


def harvest_power_clear(cos_theta: float, shadowed: bool, hp: HarvestParams) -> float:
    """Clear-sky panel output; zero in shadow or when facing away from the sun."""
    if shadowed or cos_theta < 0.0:
        return 0.0
    return hp.peak_power * cos_theta


def harvest_power_cloud(z: float, hp: HarvestParams) -> float:
    """Panel output through a cloud layer, piecewise in altitude z."""
    if z >= hp.h_up:
        return hp.peak_power
    if z >= hp.h_down:
        return hp.peak_power * math.exp(-hp.beta_c * (hp.h_up - z))
    return hp.peak_power * math.exp(-hp.beta_c * (hp.h_up - hp.h_down))


def harvest_power_altitude(z: float, hp: HarvestParams) -> float:
    """Altitude-dependent panel output; strictly increasing in z."""
    return hp.peak_power * math.exp(hp.alpha_c - hp.beta_c * math.exp(-z / hp.delta_c))


@dataclass(frozen=True)
class EnergyModel:
    """Scenario-level selection of consumption constants and harvest model."""

    consumption: ConsumptionParams = ConsumptionParams()
    harvest: HarvestParams = HarvestParams()
    mode: HarvestModel = HarvestModel.CLEAR

    def harvest_power(self, cos_theta: float, shadowed: bool, z: float) -> float:
        """Dispatch on the selected model; shadow always gates harvest."""
        if self.mode is HarvestModel.CLEAR:
            return harvest_power_clear(cos_theta, shadowed, self.harvest)
        if shadowed:
            return 0.0
        if self.mode is HarvestModel.CLOUD:
            return harvest_power_cloud(z, self.harvest)
        return harvest_power_altitude(z, self.harvest)

    def gain(self, elevation: float, shadowed: bool, z: float, duration: float) -> float:
        """Joules harvested over `duration` seconds at altitude z. The panel
        flies level (zero bank), so its incidence cosine is sin(elevation)
        whatever the heading and the sun's azimuth."""
        cos_theta = incidence_cosine(0.0, 0.0, 0.0, elevation)
        return self.harvest_power(cos_theta, shadowed, z) * duration

    def max_harvest_power(self) -> float:
        """Optimistic harvest bound used by admissible planner heuristics."""
        if self.mode is HarvestModel.ALTITUDE:
            return self.harvest.peak_power * math.exp(self.harvest.alpha_c)
        return self.harvest.peak_power


@dataclass(frozen=True)
class BatteryState:
    """On-board energy with a capacity clamp and a hard floor."""

    energy: float
    capacity: float
    floor: float = 0.0

    def __post_init__(self):
        if not self.floor <= self.energy <= self.capacity:
            raise ValueError(
                f"battery energy {self.energy} outside [{self.floor}, {self.capacity}]")


def battery_step(b: BatteryState, e_out: float, e_gain: float) -> BatteryState:
    """Apply one consumption/harvest exchange; clamp at capacity.

    Raises BatteryDepleted when the result would breach the floor.
    """
    if e_out < 0 or e_gain < 0:
        raise ValueError("e_out and e_gain must be nonnegative")
    energy = min(b.capacity, b.energy - e_out + e_gain)
    if energy < b.floor:
        raise BatteryDepleted(energy, b.floor)
    return BatteryState(energy, b.capacity, b.floor)
