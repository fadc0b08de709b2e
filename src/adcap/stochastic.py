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

from .errors import ConfigurationError, FeederFormatError
from .feeder import _get, _number, _parse_phases

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

    def __post_init__(self):
        if not (0.0 < self.power_factor <= 1.0):
            raise ConfigurationError(f"stochastic load at '{self.bus}': bad power factor")


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

    def mean_inputs(self) -> np.ndarray:
        """The forecast means as an input row, mapped by :func:`physical_inputs`."""
        return physical_inputs(np.zeros((1, self.dimension)), self.distributions())[0]


def _scenario_check(check, *args):
    """Apply one of the feeder schema's field checks to a scenario document,
    reporting a failure as a scenario error."""
    try:
        return check(*args)
    except FeederFormatError as exc:
        raise ConfigurationError(str(exc)) from None


def build_registry(model, scenario: dict) -> StochasticRegistry:
    """Validate a scenario document against a feeder model.

    Expects top-level keys ``wind``, ``solar``, ``loads_stochastic``, each a
    list of unit objects.  Numbers and phase strings follow the feeder
    schema's rules.
    """
    if not isinstance(scenario, dict):
        raise ConfigurationError("scenario must be a JSON object")
    reg = StochasticRegistry()
    bus_ids = {b.id: b for b in model.buses}

    def _units(key, kind):
        """(record, context, bus) of every unit listed under ``key``."""
        units = scenario.get(key, [])
        if not isinstance(units, list) or not all(isinstance(u, dict) for u in units):
            raise ConfigurationError(f"scenario: '{key}' must be a list of objects")
        for raw in units:
            ctx = f"{kind} at '{raw.get('bus', '?')}'"
            bus = _scenario_check(_get, raw, "bus", ctx, str)
            if bus not in bus_ids:
                raise ConfigurationError(f"{ctx}: unknown bus")
            yield raw, ctx, bus

    def _num(raw, key, ctx, *default):
        return _scenario_check(_number, raw, key, ctx, *default)

    def _phases(raw, ctx, bus):
        phases = _scenario_check(_parse_phases, raw.get("phases", "abc"), ctx)
        for ph in phases:
            if ph not in bus_ids[bus].phases:
                raise ConfigurationError(f"{ctx}: phase '{ph}' absent at bus")
        return phases

    for raw, ctx, bus in _units("wind", "wind"):
        unit = WindTurbine(
            bus,
            _phases(raw, ctx, bus),
            _num(raw, "p_rated_kw", ctx),
            _num(raw, "v_cut_in", ctx),
            _num(raw, "v_rated", ctx),
            _num(raw, "v_cut_out", ctx),
            _num(raw, "power_factor", ctx, 0.85),
        )
        dist = ForecastDistribution(
            "wind_speed", _num(raw, "mean_speed", ctx), _num(raw, "std_speed", ctx)
        )
        reg.wind_units.append((unit, dist))

    for raw, ctx, bus in _units("solar", "solar"):
        unit = SolarUnit(
            bus,
            _phases(raw, ctx, bus),
            _num(raw, "p_rated_kw", ctx),
            _num(raw, "r_certain", ctx),
            _num(raw, "r_standard", ctx),
        )
        dist = ForecastDistribution(
            "solar_radiation",
            _num(raw, "mean_radiation", ctx),
            _num(raw, "std_radiation", ctx),
        )
        reg.solar_units.append((unit, dist))

    for raw, ctx, bus in _units("loads_stochastic", "stochastic load"):
        phase = _scenario_check(_get, raw, "phase", ctx)
        if phase not in bus_ids[bus].phases:
            raise ConfigurationError(f"{ctx}: phase '{phase}' absent at bus")
        unit = StochasticLoad(bus, phase, _num(raw, "power_factor", ctx, 0.85))
        dist = ForecastDistribution(
            "load_active_power", _num(raw, "mean_kw", ctx), _num(raw, "std_kw", ctx)
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


def standard_normals(count, dimension, seed, block_rows=None):
    """Yield a (count, dimension) draw of standard normals from the
    counter-based Philox generator keyed by ``seed``, in consecutive blocks
    of ``block_rows`` rows (the last may be shorter; one block of all rows
    by default).  The blocks read one stream in order, so at any block size,
    even or uneven, they are bitwise the rows of the one-pass draw, and no
    result depends on how the draw or the later work is split."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    step = block_rows or count
    for r0 in range(0, count, step):
        yield rng.standard_normal((min(step, count - r0), dimension))


def physical_inputs(xi, distributions) -> np.ndarray:
    """Map a (rows, n) block of standard-normal points to input rows through
    each marginal's ``from_standard_normal``, clamping negative physical
    values at zero.  The marginals must be ordered wind, solar, load, the
    order of a registry's inputs."""
    kinds = [_KINDS.index(d.kind) for d in distributions]
    if kinds != sorted(kinds):
        raise ConfigurationError("distributions must be ordered wind, solar, load")
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[1] != len(distributions):
        raise ConfigurationError(
            f"points of shape {xi.shape} for {len(distributions)} marginals"
        )
    out = np.empty(xi.shape)
    for j, d in enumerate(distributions):
        out[:, j] = d.from_standard_normal(xi[:, j])
    return np.maximum(out, 0.0, out=out)


def sample_inputs(distributions, count, seed) -> np.ndarray:
    """Draw ``count`` input rows: ``standard_normals`` mapped by
    ``physical_inputs``."""
    [xi] = standard_normals(count, len(distributions), seed)
    return physical_inputs(xi, distributions)


def assemble_variation(u, registry: StochasticRegistry) -> VariationVector:
    """Convert one input row (wind speeds, radiations, load kW, in registry
    order) into the per-(bus, phase) direction.

    Sign convention: injections are positive, so DG enters with + and load
    growth with -.  The positive load-increase total (stochastic demands plus
    negative constant entries) is recorded for MW conversion of margins.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (registry.dimension,):
        raise ConfigurationError(
            f"input row of shape {u.shape} does not match the registry's "
            f"{registry.dimension} inputs"
        )
    n_w = len(registry.wind_units)
    n_s = len(registry.solar_units)

    dp: dict = {}
    dq: dict = {}

    def _add(key, p, q):
        dp[key] = dp.get(key, 0.0) + p
        dq[key] = dq.get(key, 0.0) + q

    for (unit, _), v in zip(registry.wind_units, u[:n_w]):
        p = wind_power_kw(float(v), unit)
        q = reactive_from_active(p, unit.power_factor)
        share = 1.0 / len(unit.phases)
        for ph in unit.phases:
            _add((unit.bus, ph), p * share, q * share)  # constant-pf injection

    for (unit, _), r in zip(registry.solar_units, u[n_w:n_w + n_s]):
        p = solar_power_kw(float(r), unit)
        share = 1.0 / len(unit.phases)
        for ph in unit.phases:
            _add((unit.bus, ph), p * share, 0.0)

    load_increase = 0.0
    for (unit, _), p in zip(registry.load_units, u[n_w + n_s:]):
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
