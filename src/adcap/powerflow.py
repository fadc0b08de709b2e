"""Newton power flow over the full three-phase (bus, phase) node set.

State is polar per node; the Jacobian is assembled analytically from the
complex-voltage derivative identities

    dS/dtheta = j diag(V) conj(diag(I) - Y diag(V))
    dS/d|V|   = diag(V/|V|) conj(diag(I)) + diag(V) conj(Y diag(V/|V|))

with I = Y V.  Mismatch is g(x) = S_spec(lambda) - S(x).  One residual
(:func:`mismatch_at`) and one Jacobian builder (:func:`jacobian_at`), both
over (vm, theta, idx_p, idx_q), serve every caller: the Newton solve, the
:func:`mismatch`/:func:`jacobian` views of a state, and the continuation
corrector, whose augmented Jacobian is this one plus the direction column.
The builder returns d(mismatch)/dx = -dS/dx restricted to the unknown
rows/columns, so a Newton step solves J dx = -g.

Row/column ordering: active-power rows over all non-slack nodes (node order),
then reactive rows over PQ nodes (including PV phases switched to a reactive
limit); columns are the matching angles then magnitudes.

PV phases are switched to PQ one at a time, nearest violation first (the
phase whose reactive output exceeds its limit by the smallest margin), and a
state carries its switch set so re-solving from a solved state performs no
further switching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    SingularJacobianError,
)
from .feeder import (
    PHASES,
    FeederModel,
    build_admittance,
    branch_admittance_blocks,
    i_base_a,
    z_base_ohm,
)

_PHASE_REF = {"a": 0.0, "b": -2.0 * math.pi / 3.0, "c": 2.0 * math.pi / 3.0}


# Newton settings shared by every solve and by the continuation corrector
TOL = 1e-8  # max-norm of the power mismatch, pu
MAX_ITER = 30
VM_FLOOR = 1e-3  # keeps magnitudes positive while iterating


@dataclass
class PowerFlowState:
    vm: np.ndarray  # pu, per node
    theta: np.ndarray  # rad, per node
    q_switched: dict = field(default_factory=dict)  # (bus, phase) -> "min"/"max"
    q_gen_pu: dict = field(default_factory=dict)  # reactive output of PV phases
    iterations: int = 0
    max_mismatch: float = math.inf
    newton_total: int = 0  # cumulative over switching rounds

    def voltage(self) -> np.ndarray:
        return self.vm * np.exp(1j * self.theta)

    def copy(self) -> "PowerFlowState":
        return PowerFlowState(
            self.vm.copy(), self.theta.copy(), dict(self.q_switched),
            dict(self.q_gen_pu), self.iterations, self.max_mismatch,
            self.newton_total,
        )


@dataclass
class MismatchVector:
    """Power mismatch split into P rows (non-slack) and Q rows (PQ)."""

    dp: np.ndarray
    dq: np.ndarray
    p_nodes: list
    q_nodes: list

    @property
    def max_abs(self) -> float:
        parts = [np.abs(self.dp), np.abs(self.dq)]
        return float(max(p.max() if p.size else 0.0 for p in parts))


@dataclass
class _BranchView:
    branch_id: str
    fi: np.ndarray
    ti: np.ndarray
    yff: np.ndarray
    yft: np.ndarray
    ytf: np.ndarray
    ytt: np.ndarray
    i_base_from: float
    i_base_to: float
    ampacity_a: float
    rate_to_side: bool  # transformers are rated on the from side only


class NetworkCase:
    """Immutable solver-ready view of a feeder: admittance, base injections,
    node classification and branch-current machinery.  Shared read-only by
    every worker; solves never mutate it."""

    def __init__(self, model: FeederModel):
        self.model = model
        self.admittance = build_admittance(model)
        self.nodes = self.admittance.nodes
        self.index = self.admittance.index
        self.y = self.admittance.matrix
        n = len(self.nodes)
        self.n = n

        self.slack_mask = np.zeros(n, dtype=bool)
        self.pv_mask = np.zeros(n, dtype=bool)
        self.v_set = np.ones(n)
        self.theta_ref = np.array(
            [_PHASE_REF[ph] for (_, ph) in self.nodes]
        )
        for bus in model.buses:
            for ph in bus.phases:
                i = self.index[(bus.id, ph)]
                if bus.bus_type == "slack":
                    self.slack_mask[i] = True
                    self.v_set[i] = bus.v0_pu
                elif bus.bus_type == "pv":
                    self.pv_mask[i] = True
                    self.v_set[i] = bus.v0_pu

        # base injections, pu; generator reactive output on PV phases is a
        # solver variable so it stays out of q0
        self.p0 = np.zeros(n)
        self.q0 = np.zeros(n)
        for load in model.loads:
            i = self.index[(load.bus, load.phase)]
            self.p0[i] -= load.p_kw / 1000.0
            self.q0[i] -= load.q_kvar / 1000.0
        self.q_min = np.full(n, -np.inf)
        self.q_max = np.full(n, np.inf)
        for g in model.generators:
            share = 1.0 / len(g.phases)
            for ph in g.phases:
                i = self.index[(g.bus, ph)]
                self.p0[i] += g.p_kw * share / 1000.0
                if g.gen_type == "pq":
                    self.q0[i] += g.q_kvar * share / 1000.0
                else:
                    lo = g.q_min_kvar * share / 1000.0
                    hi = g.q_max_kvar * share / 1000.0
                    self.q_min[i] = lo if not np.isfinite(self.q_min[i]) else self.q_min[i] + lo
                    self.q_max[i] = hi if not np.isfinite(self.q_max[i]) else self.q_max[i] + hi

        self.pv_nodes = [i for i in range(n) if self.pv_mask[i]]

        self.branch_views = []
        for br in model.branches:
            fb, tb = model.bus(br.from_bus), model.bus(br.to_bus)
            yff, yft, ytf, ytt = branch_admittance_blocks(
                br, z_base_ohm(fb), z_base_ohm(tb)
            )
            self.branch_views.append(
                _BranchView(
                    br.id,
                    np.array([self.index[(br.from_bus, ph)] for ph in br.phases]),
                    np.array([self.index[(br.to_bus, ph)] for ph in br.phases]),
                    yff, yft, ytf, ytt,
                    i_base_a(fb), i_base_a(tb),
                    br.ampacity_a,
                    rate_to_side=(br.kind != "transformer"),
                )
            )

    # -- node partitions -----------------------------------------------------

    def partition(self, q_switched: dict):
        """(P-row node indices, Q-row node indices) for a given switch set."""
        sw = {self.index[k] for k in q_switched}
        idx_p = [i for i in range(self.n) if not self.slack_mask[i]]
        idx_q = [
            i
            for i in range(self.n)
            if not self.slack_mask[i] and (not self.pv_mask[i] or i in sw)
        ]
        return np.array(idx_p, dtype=int), np.array(idx_q, dtype=int)

    def flat_state(self) -> PowerFlowState:
        return PowerFlowState(self.v_set.copy(), self.theta_ref.copy())

    def direction_arrays(self, variation) -> tuple[np.ndarray, np.ndarray]:
        """Per-node (dp_pu, dq_pu) arrays from a VariationVector."""
        dp = np.zeros(self.n)
        dq = np.zeros(self.n)
        for key, val in variation.dp_kw.items():
            if key not in self.index:
                raise ConfigurationError(f"variation on unknown node {key}")
            dp[self.index[key]] += val / 1000.0
        for key, val in variation.dq_kvar.items():
            if key not in self.index:
                raise ConfigurationError(f"variation on unknown node {key}")
            dq[self.index[key]] += val / 1000.0
        return dp, dq

    # -- specified injections --------------------------------------------------

    def spec_injections(self, lam, direction, q_switched):
        dp, dq = direction if direction is not None else (0.0, 0.0)
        p_spec = self.p0 + lam * dp
        q_spec = self.q0 + lam * dq
        for key, side in q_switched.items():
            i = self.index[key]
            q_spec[i] += self.q_min[i] if side == "min" else self.q_max[i]
        return p_spec, q_spec


def _complex_power(case: NetworkCase, vm, theta):
    v = vm * np.exp(1j * theta)
    i_bus = case.y @ v
    return v, i_bus, v * np.conj(i_bus)


def mismatch_at(case: NetworkCase, vm, theta, idx_p, idx_q, p_spec, q_spec) -> np.ndarray:
    """Power mismatch g = S_spec - S(x): P rows over ``idx_p``, then Q rows
    over ``idx_q``."""
    _, _, s = _complex_power(case, vm, theta)
    return np.concatenate([p_spec[idx_p] - s.real[idx_p], q_spec[idx_q] - s.imag[idx_q]])


def jacobian_at(case: NetworkCase, vm, theta, idx_p, idx_q) -> np.ndarray:
    """d(mismatch)/dx, rows [P over idx_p; Q over idx_q], columns [theta over
    idx_p; vm over idx_q]."""
    v, i_bus, _ = _complex_power(case, vm, theta)
    diag = np.diag_indices_from(case.y)
    a = -(case.y * v[None, :])
    a[diag] += i_bus
    ds_dth = 1j * v[:, None] * np.conj(a)
    vnorm = v / vm
    ds_dvm = v[:, None] * np.conj(case.y * vnorm[None, :])
    ds_dvm[diag] += vnorm * np.conj(i_bus)
    top = np.hstack([ds_dth.real[np.ix_(idx_p, idx_p)], ds_dvm.real[np.ix_(idx_p, idx_q)]])
    bot = np.hstack([ds_dth.imag[np.ix_(idx_q, idx_p)], ds_dvm.imag[np.ix_(idx_q, idx_q)]])
    return -np.vstack([top, bot])


def mismatch(case: NetworkCase, state: PowerFlowState, lam=0.0, direction=None) -> MismatchVector:
    """Power mismatch g = S_spec(lambda) - S(x) over the unknown rows."""
    p_spec, q_spec = case.spec_injections(lam, direction, state.q_switched)
    idx_p, idx_q = case.partition(state.q_switched)
    g = mismatch_at(case, state.vm, state.theta, idx_p, idx_q, p_spec, q_spec)
    return MismatchVector(
        g[:len(idx_p)],
        g[len(idx_p):],
        [case.nodes[i] for i in idx_p],
        [case.nodes[i] for i in idx_q],
    )


def jacobian(case: NetworkCase, state: PowerFlowState) -> np.ndarray:
    """d(mismatch)/dx, rows [P; Q], columns [theta; vm] per module docstring."""
    idx_p, idx_q = case.partition(state.q_switched)
    return jacobian_at(case, state.vm, state.theta, idx_p, idx_q)


def _newton(case, vm, theta, p_spec, q_spec, idx_p, idx_q):
    n_p = len(idx_p)
    for it in range(MAX_ITER + 1):
        g = mismatch_at(case, vm, theta, idx_p, idx_q, p_spec, q_spec)
        norm = float(np.max(np.abs(g))) if g.size else 0.0
        if norm < TOL:
            return vm, theta, it, norm
        if it == MAX_ITER:
            raise ConvergenceError(
                f"newton stalled at mismatch {norm:.3e} after {it} iterations",
                max_mismatch=norm,
                iterations=it,
            )
        try:
            dx = np.linalg.solve(jacobian_at(case, vm, theta, idx_p, idx_q), -g)
        except np.linalg.LinAlgError:
            raise SingularJacobianError(
                f"jacobian factorization failed at iteration {it}"
            ) from None
        if not np.all(np.isfinite(dx)):
            raise SingularJacobianError(f"non-finite newton step at iteration {it}")
        theta = theta.copy()
        vm = vm.copy()
        theta[idx_p] += dx[:n_p]
        vm[idx_q] += dx[n_p:]
        np.maximum(vm, VM_FLOOR, out=vm)
    raise AssertionError("unreachable")


def reactive_violations(case: NetworkCase, vm, theta, lam, direction, q_switched):
    """Reactive output of every PV phase not yet switched, and its limit breaches.

    Returns ``(q_gen, violations)``: ``q_gen`` maps node -> output (pu) and
    ``violations`` lists ``(excess, node index, "min"|"max")`` in node order.
    """
    _, _, s = _complex_power(case, vm, theta)
    dq = direction[1] if direction is not None else np.zeros(case.n)
    q_gen = {}
    violations = []
    for i in case.pv_nodes:
        node = case.nodes[i]
        if node in q_switched:
            continue
        qg = s.imag[i] - (case.q0[i] + lam * dq[i])
        q_gen[node] = qg
        if qg > case.q_max[i]:
            violations.append((qg - case.q_max[i], i, "max"))
        elif qg < case.q_min[i]:
            violations.append((case.q_min[i] - qg, i, "min"))
    return q_gen, violations


def solve(
    case: NetworkCase,
    lam: float = 0.0,
    direction=None,
    *,
    initial: PowerFlowState | None = None,
) -> PowerFlowState:
    """Full Newton solve with one-at-a-time PV -> PQ reactive-limit switching.

    ``initial`` provides both the starting point and the inherited switch
    set; solving again from a returned state performs zero extra switches.
    """
    if initial is not None:
        vm, theta = initial.vm.copy(), initial.theta.copy()
        switched = dict(initial.q_switched)
        newton_before = initial.newton_total
    else:
        vm, theta = case.v_set.copy(), case.theta_ref.copy()
        switched = {}
        newton_before = 0

    total_newton = 0
    for _round in range(len(case.pv_nodes) + 1):
        idx_p, idx_q = case.partition(switched)
        p_spec, q_spec = case.spec_injections(lam, direction, switched)
        # PV magnitudes are pinned while unswitched
        sw_idx = {case.index[k] for k in switched}
        for i in case.pv_nodes:
            if i not in sw_idx:
                vm[i] = case.v_set[i]
        vm, theta, iters, norm = _newton(case, vm, theta, p_spec, q_spec, idx_p, idx_q)
        total_newton += iters

        q_gen, candidates = reactive_violations(case, vm, theta, lam, direction, switched)
        if not candidates:
            state = PowerFlowState(vm, theta, switched, q_gen, iters, norm)
            state.newton_total = newton_before + total_newton
            return state
        # nearest violation first: smallest excess, node order breaking ties
        candidates.sort(key=lambda c: (c[0], c[1]))
        _, i_sw, side = candidates[0]
        switched[case.nodes[i_sw]] = side
    raise ConvergenceError("reactive-limit switching failed to settle")


# -- branch flows -------------------------------------------------------------

@dataclass
class BranchFlow:
    branch_id: str
    i_from_a: np.ndarray  # amps per phase, from side
    i_to_a: np.ndarray
    loading: float  # max amps over rated ends / ampacity
    s_from_pu: complex
    s_to_pu: complex


def branch_flows(case: NetworkCase, state: PowerFlowState) -> list[BranchFlow]:
    v = state.voltage()
    flows = []
    for bv in case.branch_views:
        vf, vt = v[bv.fi], v[bv.ti]
        i_f = bv.yff @ vf + bv.yft @ vt
        i_t = bv.ytf @ vf + bv.ytt @ vt
        i_from = np.abs(i_f) * bv.i_base_from
        i_to = np.abs(i_t) * bv.i_base_to
        worst = max(i_from.max(), i_to.max()) if bv.rate_to_side else i_from.max()
        flows.append(
            BranchFlow(
                bv.branch_id,
                i_from,
                i_to,
                worst / bv.ampacity_a,
                complex(vf @ np.conj(i_f)),
                complex(vt @ np.conj(i_t)),
            )
        )
    return flows


def power_balance(case: NetworkCase, state: PowerFlowState):
    """(total nodal injection, element-wise branch + shunt absorption), pu.

    The two complex totals agree for a converged state; the comparison checks
    nodal injections against independently assembled per-element flows.
    """
    v = state.voltage()
    s_nodal = complex(np.sum(v * np.conj(case.y @ v)))
    s_elem = 0j
    for flow in branch_flows(case, state):
        s_elem += flow.s_from_pu + flow.s_to_pu
    for bus in case.model.buses:
        for ph, kvar in bus.shunt_kvar.items():
            i = case.index[(bus.id, ph)]
            y_sh = 1j * (kvar / 1000.0)
            s_elem += (state.vm[i] ** 2) * np.conj(y_sh)
    return s_nodal, s_elem
