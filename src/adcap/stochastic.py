"""Stochastic injections: wind/solar conversion curves, forecast-error
marginals, and assembly of per-(bus, phase) variation directions.

Wind speed, solar radiation and load forecast errors are modelled as normal
marginals around the forecast value.  Physical draws are clamped at zero
(speeds, radiations and demands cannot be negative); the clamp is part of the
input model, not a resampling step, so sample counts stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

_KINDS = ("wind_speed", "solar_radiation", "load_active_power")


@dataclass(frozen=True)
class ForecastDistribution:
    """Normal marginal for one random input.

    ``from_standard_normal`` is the exact affine specialization of the
    general inverse-CDF composition F^-1(Phi(xi)).
    """

    kind: str
    mean: float
    std_dev: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown input kind '{self.kind}'")
        if not (math.isfinite(self.mean) and math.isfinite(self.std_dev)):
            raise ConfigurationError(
                f"{self.kind}: mean and std_dev must be finite numbers"
            )
        if self.std_dev < 0:
            raise ConfigurationError("std_dev must be nonnegative")

    def from_standard_normal(self, xi):
        return self.mean + self.std_dev * np.asarray(xi, dtype=float)


@dataclass(frozen=True)
class WindTurbine:
    bus: str
    phases: tuple[str, ...]
    p_rated_kw: float
    v_cut_in: float
    v_rated: float
    v_cut_out: float
    power_factor: float = 0.85  # lagging; reactive demand follows active output

    def __post_init__(self):
        if not (0.0 <= self.v_cut_in < self.v_rated < self.v_cut_out):
            raise ConfigurationError(
                f"wind at '{self.bus}': require v_cut_in < v_rated < v_cut_out"
            )
        if not (0.0 < self.power_factor <= 1.0):
            raise ConfigurationError(f"wind at '{self.bus}': bad power factor")


@dataclass(frozen=True)
class SolarUnit:
    bus: str
    phases: tuple[str, ...]
    p_rated_kw: float
    r_certain: float  # radiation point below which output grows quadratically
    r_standard: float  # radiation reaching rated output

    def __post_init__(self):
        if not (0.0 < self.r_certain < self.r_standard):
            raise ConfigurationError(
                f"solar at '{self.bus}': require 0 < r_certain < r_standard"
            )


@dataclass(frozen=True)
class StochasticLoad:
    bus: str
    phase: str
    power_factor: float = 0.85  # constant-power-factor growth


def wind_power_kw(v, unit: WindTurbine) -> float:
    """Piecewise wind-speed -> active-power curve (kW)."""
    if v <= unit.v_cut_in or v > unit.v_cut_out:
        return 0.0
    if v <= unit.v_rated:
        return (v - unit.v_cut_in) / (unit.v_rated - unit.v_cut_in) * unit.p_rated_kw
    return unit.p_rated_kw


def solar_power_kw(r, unit: SolarUnit) -> float:
    """Piecewise radiation -> active-power curve (kW)."""
    if r <= 0.0:
        return 0.0
    if r < unit.r_certain:
        return r * r / (unit.r_certain * unit.r_standard) * unit.p_rated_kw
    if r <= unit.r_standard:
        return r / unit.r_standard * unit.p_rated_kw
    return unit.p_rated_kw


def reactive_from_active(p_kw, power_factor) -> float:
    """Q = P tan(acos(pf)); wind units draw this, load growth carries it."""
    return p_kw * math.tan(math.acos(power_factor))


@dataclass(frozen=True)
class RandomInputVector:
    """One realization of the physical random inputs, ordered wind, solar, load."""

    wind_speeds: np.ndarray
    radiations: np.ndarray
    load_p_kw: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.wind_speeds) + len(self.radiations) + len(self.load_p_kw)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.wind_speeds, self.radiations, self.load_p_kw])


@dataclass
class VariationVector:
    """Per-(bus, phase) direction (kW, kvar per unit lambda) plus the total
    positive load-increase component used to express margins in MW."""

    dp_kw: dict
    dq_kvar: dict
    load_increase_kw: float

    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.dp_kw.values()) and all(
            v == 0.0 for v in self.dq_kvar.values()
        )


@dataclass
class StochasticRegistry:
    """Pairs every unit with its forecast marginal and carries the constant
    (deterministic) direction entries contributed by generator records."""

    wind_units: list = field(default_factory=list)  # (WindTurbine, ForecastDistribution)
    solar_units: list = field(default_factory=list)
    load_units: list = field(default_factory=list)  # (StochasticLoad, ForecastDistribution)
    constant_dp_kw: dict = field(default_factory=dict)  # (bus, phase) -> kW
    constant_dq_kvar: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.wind_units) + len(self.solar_units) + len(self.load_units)

    def distributions(self) -> list[ForecastDistribution]:
        """Marginals in the canonical input order (wind, solar, load)."""
        return [d for _, d in self.wind_units + self.solar_units + self.load_units]

    def mean_inputs(self) -> RandomInputVector:
        return RandomInputVector(
            np.array([d.mean for _, d in self.wind_units]),
            np.array([d.mean for _, d in self.solar_units]),
            np.array([d.mean for _, d in self.load_units]),
        )


def build_registry(model, scenario: dict) -> StochasticRegistry:
    """Validate a scenario document against a feeder model.

    Expects top-level keys ``wind``, ``solar``, ``loads_stochastic``.
    """
    reg = StochasticRegistry()
    bus_ids = {b.id: b for b in model.buses}

    def _field(raw, key, ctx):
        if key not in raw:
            raise ConfigurationError(f"{ctx}: missing field '{key}'")
        return raw[key]

    def _phases(raw, ctx):
        s = raw.get("phases", "abc")
        return tuple(ph for ph in ("a", "b", "c") if ph in s)

    for raw in scenario.get("wind", []):
        ctx = f"wind at '{raw.get('bus', '?')}'"
        bus = _field(raw, "bus", ctx)
        if bus not in bus_ids:
            raise ConfigurationError(f"{ctx}: unknown bus")
        unit = WindTurbine(
            bus,
            _phases(raw, ctx),
            float(_field(raw, "p_rated_kw", ctx)),
            float(_field(raw, "v_cut_in", ctx)),
            float(_field(raw, "v_rated", ctx)),
            float(_field(raw, "v_cut_out", ctx)),
            float(raw.get("power_factor", 0.85)),
        )
        dist = ForecastDistribution(
            "wind_speed",
            float(_field(raw, "mean_speed", ctx)),
            float(_field(raw, "std_speed", ctx)),
        )
        reg.wind_units.append((unit, dist))

    for raw in scenario.get("solar", []):
        ctx = f"solar at '{raw.get('bus', '?')}'"
        bus = _field(raw, "bus", ctx)
        if bus not in bus_ids:
            raise ConfigurationError(f"{ctx}: unknown bus")
        unit = SolarUnit(
            bus,
            _phases(raw, ctx),
            float(_field(raw, "p_rated_kw", ctx)),
            float(_field(raw, "r_certain", ctx)),
            float(_field(raw, "r_standard", ctx)),
        )
        dist = ForecastDistribution(
            "solar_radiation",
            float(_field(raw, "mean_radiation", ctx)),
            float(_field(raw, "std_radiation", ctx)),
        )
        reg.solar_units.append((unit, dist))

    for raw in scenario.get("loads_stochastic", []):
        ctx = f"stochastic load at '{raw.get('bus', '?')}'"
        bus = _field(raw, "bus", ctx)
        if bus not in bus_ids:
            raise ConfigurationError(f"{ctx}: unknown bus")
        phase = _field(raw, "phase", ctx)
        if phase not in bus_ids[bus].phases:
            raise ConfigurationError(f"{ctx}: phase '{phase}' absent at bus")
        unit = StochasticLoad(bus, phase, float(raw.get("power_factor", 0.85)))
        dist = ForecastDistribution(
            "load_active_power",
            float(_field(raw, "mean_kw", ctx)),
            float(_field(raw, "std_kw", ctx)),
        )
        reg.load_units.append((unit, dist))

    for g in model.generators:
        if g.delta_p_kw == 0.0 and g.delta_q_kvar == 0.0:
            continue
        share = 1.0 / len(g.phases)
        for ph in g.phases:
            key = (g.bus, ph)
            reg.constant_dp_kw[key] = (
                reg.constant_dp_kw.get(key, 0.0) + g.delta_p_kw * share
            )
            reg.constant_dq_kvar[key] = (
                reg.constant_dq_kvar.get(key, 0.0) + g.delta_q_kvar * share
            )
    return reg


def sample_inputs(distributions, count, seed) -> list[RandomInputVector]:
    """Draw physical input realizations with a counter-based generator.

    The full (count, n) block is drawn in one pass so results do not depend
    on how work is later split across processes.
    """
    kinds = [d.kind for d in distributions]
    order = sorted(range(len(kinds)), key=lambda i: _KINDS.index(kinds[i]))
    if order != list(range(len(kinds))):
        raise ConfigurationError("distributions must be ordered wind, solar, load")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    xi = rng.standard_normal((count, len(distributions)))
    cols = [d.from_standard_normal(xi[:, j]) for j, d in enumerate(distributions)]
    block = np.maximum(np.column_stack(cols) if cols else np.empty((count, 0)), 0.0)
    n_w = kinds.count("wind_speed")
    n_s = kinds.count("solar_radiation")
    return [
        RandomInputVector(
            block[i, :n_w].copy(),
            block[i, n_w:n_w + n_s].copy(),
            block[i, n_w + n_s:].copy(),
        )
        for i in range(count)
    ]


def assemble_variation(u: RandomInputVector, registry: StochasticRegistry) -> VariationVector:
    """Convert one input realization into the per-(bus, phase) direction.

    Sign convention: injections are positive, so DG enters with + and load
    growth with -.  The positive load-increase total (stochastic demands plus
    negative constant entries) is recorded for MW conversion of margins.
    """
    expect = (len(registry.wind_units), len(registry.solar_units), len(registry.load_units))
    got = (len(u.wind_speeds), len(u.radiations), len(u.load_p_kw))
    if expect != got:
        raise ConfigurationError(
            f"input vector shape {got} does not match registry {expect}"
        )

    dp: dict = {}
    dq: dict = {}

    def _add(key, p, q):
        dp[key] = dp.get(key, 0.0) + p
        dq[key] = dq.get(key, 0.0) + q

    for (unit, _), v in zip(registry.wind_units, u.wind_speeds):
        p = wind_power_kw(float(v), unit)
        q = reactive_from_active(p, unit.power_factor)
        share = 1.0 / len(unit.phases)
        for ph in unit.phases:
            _add((unit.bus, ph), p * share, q * share)  # constant-pf injection

    for (unit, _), r in zip(registry.solar_units, u.radiations):
        p = solar_power_kw(float(r), unit)
        share = 1.0 / len(unit.phases)
        for ph in unit.phases:
            _add((unit.bus, ph), p * share, 0.0)

    load_increase = 0.0
    for (unit, _), p in zip(registry.load_units, u.load_p_kw):
        p = float(p)
        q = reactive_from_active(p, unit.power_factor)
        _add((unit.bus, unit.phase), -p, -q)
        load_increase += max(p, 0.0)

    for key, p in registry.constant_dp_kw.items():
        _add(key, p, 0.0)
        load_increase += max(-p, 0.0)
    for key, q in registry.constant_dq_kvar.items():
        _add(key, 0.0, q)

    return VariationVector(dp, dq, load_increase)
