"""Three-phase feeder model: schema, validation, per-unit branch blocks.

A feeder document is JSON with top-level keys ``buses``, ``branches``,
``loads``, ``generators`` and ``limits``.  All quantities are in physical
units (kV, ohm, siemens, kW, kvar, ampere); :func:`branch_admittance_blocks`
converts them to per-unit with a fixed per-phase power base of 1 MVA and
the phase-to-neutral voltage base of each bus's voltage zone.

Phases absent at a bus simply do not appear in the node ordering, so the
admittance matrix (``powerflow.NetworkCase``) is built over existing (bus,
phase) pairs only and no index padding is ever needed downstream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FeederFormatError,
    IllConditionedElementError,
    TopologyError,
)

PHASES = ("a", "b", "c")
S_BASE_VA = 1.0e6  # per-phase power base

_BUS_TYPES = ("slack", "pq", "pv")
_BRANCH_KINDS = ("line", "transformer")
_CONNECTIONS = ("wye-wye", "delta-wye")

# Small admittance (pu) tying the delta side of a delta-wye transformer to
# ground; the phase-frame block is otherwise singular in the zero sequence.
_DELTA_GROUNDING_Y = 1e-6


@dataclass(frozen=True)
class Bus:
    id: str
    bus_type: str
    phases: tuple[str, ...]
    base_kv_ll: float
    v0_pu: float | None = None
    shunt_kvar: dict = field(default_factory=dict)  # phase -> kvar injected at 1 pu


@dataclass(frozen=True, eq=False)
class Branch:
    id: str
    from_bus: str
    to_bus: str
    phases: tuple[str, ...]
    z_ohm: np.ndarray  # (k, k) complex, referred to from side for transformers
    y_shunt_s: np.ndarray  # (k, k) complex siemens, total charging
    ampacity_a: float
    kind: str = "line"
    tap: dict = field(default_factory=dict)  # phase -> no-load V_to/V_from ratio
    connection: str = "wye-wye"


@dataclass(frozen=True)
class Load:
    bus: str
    phase: str
    p_kw: float
    q_kvar: float


@dataclass(frozen=True)
class Generator:
    """Dispatchable injection.  ``delta_p_kw``/``delta_q_kvar`` are constant
    per-unit-lambda direction entries (negative values model deterministic
    load growth at the bus)."""

    id: str
    bus: str
    phases: tuple[str, ...]
    gen_type: str  # "pq" or "pv"
    p_kw: float = 0.0
    q_kvar: float = 0.0
    v0_pu: float | None = None
    q_min_kvar: float = -1e9
    q_max_kvar: float = 1e9
    delta_p_kw: float = 0.0
    delta_q_kvar: float = 0.0


@dataclass(frozen=True)
class OperatingLimits:
    v_min_pu: float
    v_max_pu: float


@dataclass
class FeederModel:
    name: str
    buses: list[Bus]
    branches: list[Branch]
    loads: list[Load]
    generators: list[Generator]
    limits: OperatingLimits

    def __post_init__(self):
        self._bus_by_id = {b.id: b for b in self.buses}
        self._nodes = tuple(
            (b.id, ph) for b in self.buses for ph in PHASES if ph in b.phases
        )

    @property
    def nodes(self) -> tuple:
        """Ordered (bus_id, phase) pairs over existing phases only."""
        return self._nodes

    def bus(self, bus_id: str) -> Bus:
        return self._bus_by_id[bus_id]

    @property
    def slack_bus(self) -> Bus:
        return next(b for b in self.buses if b.bus_type == "slack")

    def total_load(self) -> tuple[float, float]:
        """Total connected load (kW, kvar)."""
        return (
            sum(l.p_kw for l in self.loads),
            sum(l.q_kvar for l in self.loads),
        )


def _require(cond, message):
    if not cond:
        raise FeederFormatError(message)


_REQUIRED = object()


def _get(obj, key, context, types=None, default=_REQUIRED):
    if key not in obj:
        if default is _REQUIRED:
            raise FeederFormatError(f"{context}: missing field '{key}'")
        return default
    val = obj[key]
    if types is not None and not isinstance(val, types):
        raise FeederFormatError(f"{context}: field '{key}' has wrong type")
    return val


def _number(obj, key, context, default=_REQUIRED):
    """A JSON-number field as a finite float, or ``default`` when absent."""
    if key not in obj and default is not _REQUIRED:
        return default
    try:
        val = float(_get(obj, key, context, (int, float)))
    except OverflowError:  # an integer beyond the float range
        val = math.inf
    _require(math.isfinite(val), f"{context}: field '{key}' must be finite")
    return val


def _records(doc, key, default=_REQUIRED) -> list:
    """A top-level list of JSON objects."""
    records = _get(doc, key, "document", list, default)
    _require(all(isinstance(r, dict) for r in records),
             f"document: every entry of '{key}' must be an object")
    return records


def _parse_phases(s, context):
    _require(isinstance(s, str) and len(s) > 0, f"{context}: empty phases")
    phases = tuple(s)
    for ph in phases:
        _require(ph in PHASES, f"{context}: unknown phase '{ph}'")
    _require(len(set(phases)) == len(phases), f"{context}: repeated phase")
    return tuple(ph for ph in PHASES if ph in phases)


def _parse_matrix(entry, key, k, context):
    raw = _get(entry, key, context, list)
    try:
        m = np.asarray(raw, dtype=float)
    except (ValueError, TypeError, OverflowError):
        raise FeederFormatError(f"{context}: '{key}' must be a matrix of numbers") from None
    if m.shape != (k, k):
        raise FeederFormatError(f"{context}: '{key}' must be {k}x{k}")
    if not np.allclose(m, m.T, atol=1e-12):
        raise FeederFormatError(f"{context}: '{key}' must be symmetric")
    return m


def load_feeder(document) -> FeederModel:
    """Parse and validate a feeder description (JSON text or dict)."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise FeederFormatError(f"document is not valid JSON: {exc}") from exc
    else:
        doc = document
    _require(isinstance(doc, dict), "document must be a JSON object")

    name = doc.get("name", "feeder")
    buses = []
    seen = set()
    for raw in _records(doc, "buses"):
        ctx = f"bus '{raw.get('id', '?')}'"
        bid = _get(raw, "id", ctx, str)
        if bid in seen:
            raise TopologyError(f"duplicate bus id '{bid}'")
        seen.add(bid)
        btype = _get(raw, "type", ctx, str)
        _require(btype in _BUS_TYPES, f"{ctx}: unknown type '{btype}'")
        phases = _parse_phases(_get(raw, "phases", ctx, str), ctx)
        kv = _number(raw, "base_kv_ll", ctx)
        _require(kv > 0, f"{ctx}: base_kv_ll must be positive")
        v0 = _number(raw, "v0_pu", ctx, None)
        if btype in ("slack", "pv"):
            _require(v0 is not None, f"{ctx}: type '{btype}' requires v0_pu")
            _require(v0 > 0, f"{ctx}: v0_pu must be positive")
        elif v0 is not None:
            raise FeederFormatError(f"{ctx}: v0_pu only allowed on slack/pv buses")
        shunt = {}
        shunt_raw = _get(raw, "shunt_kvar", ctx, dict, {})
        for ph in shunt_raw:
            _require(ph in phases, f"{ctx}: shunt on absent phase '{ph}'")
            shunt[ph] = _number(shunt_raw, ph, f"{ctx} shunt_kvar")
        buses.append(Bus(bid, btype, phases, kv, v0, shunt))

    _require(len(buses) > 0, "document: no buses")
    n_slack = sum(1 for b in buses if b.bus_type == "slack")
    if n_slack != 1:
        raise TopologyError(f"expected exactly one slack bus, found {n_slack}")
    if len(buses) == 1:  # every margin is read at the non-slack nodes
        raise TopologyError("no bus besides the slack bus")
    bus_by_id = {b.id: b for b in buses}

    branches = []
    seen_br = set()
    for raw in _records(doc, "branches"):
        ctx = f"branch '{raw.get('id', '?')}'"
        brid = _get(raw, "id", ctx, str)
        if brid in seen_br:
            raise TopologyError(f"duplicate branch id '{brid}'")
        seen_br.add(brid)
        fb = _get(raw, "from", ctx, str)
        tb = _get(raw, "to", ctx, str)
        for end in (fb, tb):
            _require(end in bus_by_id, f"{ctx}: unknown bus '{end}'")
        _require(fb != tb, f"{ctx}: from and to coincide")
        phases = _parse_phases(_get(raw, "phases", ctx, str), ctx)
        for end in (fb, tb):
            for ph in phases:
                _require(
                    ph in bus_by_id[end].phases,
                    f"{ctx}: phase '{ph}' absent at bus '{end}'",
                )
        k = len(phases)
        r = _parse_matrix(raw, "r_ohm", k, ctx)
        x = _parse_matrix(raw, "x_ohm", k, ctx)
        z = r + 1j * x
        if "b_shunt_s" in raw:
            bsh = _parse_matrix(raw, "b_shunt_s", k, ctx)
        else:
            bsh = np.zeros((k, k))
        ysh = 1j * bsh
        amp = _number(raw, "ampacity_a", ctx)
        _require(amp > 0, f"{ctx}: ampacity_a must be positive")
        kind = raw.get("kind", "line")
        _require(kind in _BRANCH_KINDS, f"{ctx}: unknown kind '{kind}'")
        tap = {}
        connection = raw.get("connection", "wye-wye")
        if kind == "transformer":
            _require(connection in _CONNECTIONS,
                     f"{ctx}: unknown connection '{connection}'")
            tap_raw = _get(raw, "tap", ctx, dict, {})
            for ph in tap_raw:
                _require(ph in phases, f"{ctx}: tap on absent phase '{ph}'")
                t = _number(tap_raw, ph, f"{ctx} tap")
                _require(t > 0, f"{ctx}: tap must be positive")
                tap[ph] = t
            if connection == "delta-wye":
                _require(len(phases) == 3, f"{ctx}: delta-wye requires 3 phases")
        else:
            _require("tap" not in raw, f"{ctx}: tap only allowed on transformers")
        branches.append(
            Branch(brid, fb, tb, phases, z, ysh, amp, kind, tap, connection)
        )

    loads = []
    for raw in _records(doc, "loads"):
        ctx = f"load at '{raw.get('bus', '?')}'"
        bus = _get(raw, "bus", ctx, str)
        _require(bus in bus_by_id, f"{ctx}: unknown bus '{bus}'")
        phase = _get(raw, "phase", ctx, str)
        _require(phase in bus_by_id[bus].phases,
                 f"{ctx}: phase '{phase}' absent at bus '{bus}'")
        loads.append(
            Load(bus, phase, _number(raw, "p_kw", ctx), _number(raw, "q_kvar", ctx))
        )

    generators = []
    seen_g = set()
    for raw in _records(doc, "generators", []):
        ctx = f"generator '{raw.get('id', '?')}'"
        gid = _get(raw, "id", ctx, str)
        if gid in seen_g:
            raise TopologyError(f"duplicate generator id '{gid}'")
        seen_g.add(gid)
        bus = _get(raw, "bus", ctx, str)
        _require(bus in bus_by_id, f"{ctx}: unknown bus '{bus}'")
        phases = _parse_phases(_get(raw, "phases", ctx, str), ctx)
        for ph in phases:
            _require(ph in bus_by_id[bus].phases,
                     f"{ctx}: phase '{ph}' absent at bus '{bus}'")
        gtype = raw.get("type", "pq")
        _require(gtype in ("pq", "pv"), f"{ctx}: unknown type '{gtype}'")
        v0 = _number(raw, "v0_pu", ctx, None)
        if gtype == "pv":
            _require(v0 is not None, f"{ctx}: pv generator requires v0_pu")
            _require(bus_by_id[bus].bus_type == "pv",
                     f"{ctx}: pv generator on {bus_by_id[bus].bus_type} bus '{bus}'")
        generators.append(
            Generator(
                gid, bus, phases, gtype,
                p_kw=_number(raw, "p_kw", ctx, 0.0),
                q_kvar=_number(raw, "q_kvar", ctx, 0.0),
                v0_pu=v0,
                q_min_kvar=_number(raw, "q_min_kvar", ctx, -1e9),
                q_max_kvar=_number(raw, "q_max_kvar", ctx, 1e9),
                delta_p_kw=_number(raw, "delta_p_kw", ctx, 0.0),
                delta_q_kvar=_number(raw, "delta_q_kvar", ctx, 0.0),
            )
        )

    lim_raw = _get(doc, "limits", "document", dict)
    vmin = _number(lim_raw, "v_min_pu", "limits")
    vmax = _number(lim_raw, "v_max_pu", "limits")
    _require(0 < vmin < vmax, "limits: require 0 < v_min_pu < v_max_pu")
    limits = OperatingLimits(vmin, vmax)

    model = FeederModel(name, buses, branches, loads, generators, limits)
    _check_connected(model)
    return model


def _check_connected(model: FeederModel):
    """Every bus must be reachable from the slack through branches."""
    adj = {b.id: set() for b in model.buses}
    for br in model.branches:
        adj[br.from_bus].add(br.to_bus)
        adj[br.to_bus].add(br.from_bus)
    seen = {model.slack_bus.id}
    stack = [model.slack_bus.id]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    isolated = [b.id for b in model.buses if b.id not in seen]
    if isolated:
        raise TopologyError(f"buses not connected to slack: {isolated}")


# --- per-unit bases ---------------------------------------------------------

def v_base_v(bus: Bus) -> float:
    """Phase-to-neutral voltage base in volts."""
    return bus.base_kv_ll * 1e3 / math.sqrt(3.0)


def z_base_ohm(bus: Bus) -> float:
    return v_base_v(bus) ** 2 / S_BASE_VA


def i_base_a(bus: Bus) -> float:
    return S_BASE_VA / v_base_v(bus)


# --- per-branch admittance blocks -------------------------------------------

def _series_admittance(branch: Branch, z_pu: np.ndarray) -> np.ndarray:
    try:
        ys = np.linalg.inv(z_pu)
    except np.linalg.LinAlgError:
        raise IllConditionedElementError(
            f"branch '{branch.id}': singular series impedance block"
        ) from None
    cond = np.linalg.cond(z_pu)
    if not np.isfinite(cond) or cond > 1e12:
        raise IllConditionedElementError(
            f"branch '{branch.id}': ill-conditioned series impedance block"
        )
    return ys


def branch_admittance_blocks(branch: Branch, zb_from: float, zb_to: float):
    """Per-unit two-port blocks (Yff, Yft, Ytf, Ytt) of one branch.

    Transformer impedance is given in ohms referred to the from side; taps are
    no-load voltage ratios V_to/V_from on top of the base-voltage ratio.
    """
    k = len(branch.phases)
    z_pu = branch.z_ohm / zb_from
    ys = _series_admittance(branch, z_pu)
    if branch.kind == "line":
        ysh_half = 0.5 * branch.y_shunt_s * zb_from
        yff = ys + ysh_half
        ytt = ys + ysh_half
        return yff, -ys, -ys, ytt

    taps = np.array([branch.tap.get(ph, 1.0) for ph in branch.phases])
    if branch.connection == "wye-wye":
        r = np.diag(taps)
        yff = r @ ys @ r
        yft = -(r @ ys)
        ytf = -(ys @ r)
        ytt = ys
        return yff, yft, ytf, ytt

    # delta (from) - grounded wye (to); per-unit bank with uniform leakage
    y_diag = np.diag(ys)
    if not np.allclose(y_diag, y_diag[0], rtol=1e-9) or not np.allclose(
        ys, np.diag(y_diag), atol=1e-12 * abs(y_diag[0])
    ):
        raise IllConditionedElementError(
            f"branch '{branch.id}': delta-wye requires uniform uncoupled leakage"
        )
    if len(set(branch.tap.values())) > 1:
        raise IllConditionedElementError(
            f"branch '{branch.id}': delta-wye requires a single tap value"
        )
    y = y_diag[0]
    t = taps[0]
    c_d = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]) / 3.0
    c_dy = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]]) / math.sqrt(3.0)
    yff = (y / t**2) * c_d + _DELTA_GROUNDING_Y * np.eye(3)
    yft = (y / t) * c_dy
    ytf = yft.T.copy()
    ytt = y * np.eye(3)
    return yff, yft, ytf, ytt
