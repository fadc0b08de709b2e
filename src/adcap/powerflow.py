"""Newton power flow over the full three-phase (bus, phase) node set.

State is polar per node; the Jacobian is assembled analytically from the
complex-voltage derivative identities

    dS/dtheta = j diag(V) conj(diag(I) - Y diag(V))
    dS/d|V|   = diag(V/|V|) conj(diag(I)) + diag(V) conj(Y diag(V/|V|))

with I = Y V.  Mismatch is g(x) = S_spec(lambda) - S(x).  One residual
(:func:`mismatch_at`) and one Jacobian builder (:func:`jacobian_at`) serve
every caller, both from one evaluation of (V, I, S) per Newton iteration.
The builder gathers d(mismatch)/dx = -dS/dx on the unknown rows/columns by
index into a preallocated matrix, so a Newton step solves J dx = -g; a
continuation step fills its spare last column with the growth direction.

Row/column ordering: active-power rows over all non-slack nodes (node order),
then reactive rows over PQ nodes (including PV phases switched to a reactive
limit); columns are the matching angles then magnitudes.  These node index
arrays are computed once per switch set (:meth:`NetworkCase.partition`).

Every power-flow solve, whether a plain solve or a continuation step, runs
one Newton loop (:func:`correct`) on one augmented system (:class:`Curve`):
the m mismatch rows of a switch set over the m + 1 coordinates
z = [theta_p, vm_q, lambda], with one coordinate pinned.  :func:`solve` pins
lambda; a local continuation step pins one voltage magnitude.  After every
update the loop projects the magnitudes of its iterate onto VM_FLOOR, so each
residual is evaluated at the iterate itself.  The loop gives up after
MAX_ITER iterations.  A caller that retries a failure with a shorter step
(the natural and local steps of a continuation) passes ``abort_on_rise``,
and the loop then gives up already at the first iteration whose mismatch
max-norm is not below the previous one: most such starts lie past the fold
or too far along the curve, and a shorter retry is cheaper than the rest of
the budget.  The max-norm can also rise once on the way to a solution, so a
caller that reads a failure as "no solution here" (the base case, crossing
refinement, nose sharpening) keeps the whole budget.

Reactive limits follow one rule in every solve: after each converged round,
the PV phase whose reactive output exceeds its limit by the smallest margin
(node order breaking ties) is switched to PQ at that limit and the round is
solved again, until no unswitched PV phase is in violation.  A state carries
its switch set, so re-solving from a solved state performs no further
switching.
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


# settings of the Newton loop (:func:`correct`) behind every solve
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
    every worker; solves never mutate it beyond filling its memos: the node
    partitions (:meth:`partition`) and the feasible base case
    (``continuation.solve_base_case``)."""

    def __init__(self, model: FeederModel):
        self.model = model
        self.admittance = build_admittance(model)
        self.nodes = self.admittance.nodes
        self.index = self.admittance.index
        self.y = self.admittance.matrix
        n = len(self.nodes)
        self.n = n
        self._partitions = {}  # frozenset of switched nodes -> (idx_p, idx_q)
        self.base_case = None  # (state, status) once solved and found feasible

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
        """(P-row node indices, Q-row node indices) for a given switch set,
        computed once per set of switched nodes; the arrays are read-only."""
        key = frozenset(q_switched)
        parts = self._partitions.get(key)
        if parts is None:
            sw = {self.index[k] for k in key}
            idx_p = [i for i in range(self.n) if not self.slack_mask[i]]
            idx_q = [
                i
                for i in range(self.n)
                if not self.slack_mask[i] and (not self.pv_mask[i] or i in sw)
            ]
            parts = np.array(idx_p, dtype=int), np.array(idx_q, dtype=int)
            for arr in parts:
                arr.flags.writeable = False
            self._partitions[key] = parts
        return parts

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


def mismatch_at(s, idx_p, idx_q, p_spec, q_spec) -> np.ndarray:
    """Power mismatch g = S_spec - S at the nodal complex power ``s``: P rows
    over ``idx_p``, then Q rows over ``idx_q``."""
    return np.concatenate([p_spec[idx_p] - s.real[idx_p], q_spec[idx_q] - s.imag[idx_q]])


def jacobian_at(case: NetworkCase, vm, v, i_bus, rows, cols, out) -> np.ndarray:
    """d(mismatch)/dx at magnitudes ``vm``, complex voltages ``v`` and bus
    currents ``i_bus`` = Y v: rows [P over rows[0]; Q over rows[1]], columns
    [theta over cols[0]; vm over cols[1]], written into the leading columns
    of ``out``, which is returned."""
    n = case.n
    a = -(case.y * v[None, :])
    a.reshape(-1)[:: n + 1] += i_bus
    ds_dth = 1j * v[:, None] * np.conj(a)
    vnorm = v / vm
    ds_dvm = v[:, None] * np.conj(case.y * vnorm[None, :])
    ds_dvm.reshape(-1)[:: n + 1] += vnorm * np.conj(i_bus)
    (rp, rq), (cp, cq) = rows, cols
    n_p, k_p = len(rp), len(cp)
    k = k_p + len(cq)
    rp, rq = rp[:, None], rq[:, None]
    out[:n_p, :k_p] = ds_dth.real[rp, cp]
    out[:n_p, k_p:k] = ds_dvm.real[rp, cq]
    out[n_p:, :k_p] = ds_dth.imag[rq, cp]
    out[n_p:, k_p:k] = ds_dvm.imag[rq, cq]
    np.negative(out[:, :k], out=out[:, :k])
    return out


def mismatch(case: NetworkCase, state: PowerFlowState, lam=0.0, direction=None) -> np.ndarray:
    """Power mismatch g = S_spec(lambda) - S(x) over the unknown rows."""
    p_spec, q_spec = case.spec_injections(lam, direction, state.q_switched)
    idx_p, idx_q = case.partition(state.q_switched)
    _, _, s = _complex_power(case, state.vm, state.theta)
    return mismatch_at(s, idx_p, idx_q, p_spec, q_spec)


def jacobian(case: NetworkCase, state: PowerFlowState) -> np.ndarray:
    """d(mismatch)/dx, rows [P; Q], columns [theta; vm] per module docstring."""
    curve = Curve(case, None, state.q_switched)
    return curve.jacobian(state.vm, state.theta, curve.lam_coord)


class Curve:
    """The power-flow equations of one switch set over the augmented
    coordinates z = [theta_p, vm_q, lambda]: m mismatch rows in m + 1
    unknowns, made square by pinning lambda (``lam_coord``) or one magnitude
    (:meth:`vm_coord`)."""

    def __init__(self, case, direction, q_switched):
        self.case = case
        self.direction = direction
        self.q_switched = dict(q_switched)
        self.idx_p, self.idx_q = case.partition(q_switched)
        self.n_p = len(self.idx_p)
        self.lam_coord = self.n_p + len(self.idx_q)
        self._spec_at = None  # (lambda, specified injections) last evaluated

    def pack(self, state, lam):
        return np.concatenate(
            [state.theta[self.idx_p], state.vm[self.idx_q], [lam]]
        )

    def unpack(self, z):
        """Full (vm, theta) at z; pinned PV magnitudes and the slack sit at
        their set points."""
        vm = self.case.v_set.copy()
        theta = self.case.theta_ref.copy()
        theta[self.idx_p] = z[: self.n_p]
        vm[self.idx_q] = z[self.n_p:-1]
        return vm, theta

    def state(self, z, iterations=0, norm=0.0) -> PowerFlowState:
        vm, theta = self.unpack(z)
        return PowerFlowState(
            vm, theta, dict(self.q_switched), {}, iterations, norm
        )

    def vm_coord(self, node_index):
        """Position in z of the magnitude at a node index, which must be free."""
        return self.n_p + int(np.flatnonzero(self.idx_q == node_index)[0])

    def jacobian(self, vm, theta, pin=None):
        """d(mismatch)/dz at (vm, theta) without column ``pin``: the power-flow
        Jacobian when lambda is pinned, else the augmented
        [d(mismatch)/dx | direction] with column ``pin`` removed (kept whole
        for ``pin=None``)."""
        v, i_bus, _ = _complex_power(self.case, vm, theta)
        return self._jacobian(vm, v, i_bus, pin)

    def _jacobian(self, vm, v, i_bus, pin):
        """:meth:`jacobian` from the complex voltages v and currents Y v."""
        cols_p, cols_q = self.idx_p, self.idx_q
        if pin is not None and pin < self.n_p:
            cols_p = np.delete(cols_p, pin)
        elif pin is not None and pin < self.lam_coord:
            cols_q = np.delete(cols_q, pin - self.n_p)
        lam_col = pin != self.lam_coord
        jac = np.empty((self.lam_coord, len(cols_p) + len(cols_q) + lam_col))
        jacobian_at(
            self.case, vm, v, i_bus, (self.idx_p, self.idx_q), (cols_p, cols_q), jac
        )
        if lam_col:
            dp, dq = self.direction
            jac[: self.n_p, -1] = dp[self.idx_p]
            jac[self.n_p:, -1] = dq[self.idx_q]
        return jac

    def linearize(self, z, pin):
        """Project the magnitudes of z onto VM_FLOOR in place, then return
        the mismatch at z and a function giving its Jacobian without
        column ``pin``; both read one complex-power evaluation."""
        vm_q = z[self.n_p:-1]
        np.maximum(vm_q, VM_FLOOR, out=vm_q)
        vm, theta = self.unpack(z)
        lam = z[-1]
        if self._spec_at is None or self._spec_at[0] != lam:
            # evaluated once per solve while lambda is pinned
            self._spec_at = lam, self.case.spec_injections(lam, self.direction, self.q_switched)
        p_spec, q_spec = self._spec_at[1]
        v, i_bus, s = _complex_power(self.case, vm, theta)
        g = mismatch_at(s, self.idx_p, self.idx_q, p_spec, q_spec)
        return g, lambda: self._jacobian(vm, v, i_bus, pin)

    def settle(self, z, iterations, norm):
        """The state at a converged z and the curve of the next switching
        round, None once no unswitched PV phase violates its reactive limit.

        The state records the reactive output of every unswitched PV phase;
        the next round switches the nearest violation (module docstring).
        """
        case = self.case
        state = self.state(z, iterations, norm)
        if not case.pv_nodes:
            return state, None
        lam = z[-1]
        _, _, s = _complex_power(case, state.vm, state.theta)
        dq = self.direction[1] if self.direction is not None else np.zeros(case.n)
        violations = []
        for i in case.pv_nodes:
            node = case.nodes[i]
            if node in self.q_switched:
                continue
            qg = s.imag[i] - (case.q0[i] + lam * dq[i])
            state.q_gen_pu[node] = qg
            if qg > case.q_max[i]:
                violations.append((qg - case.q_max[i], i, "max"))
            elif qg < case.q_min[i]:
                violations.append((case.q_min[i] - qg, i, "min"))
        if not violations:
            return state, None
        _, i, side = min(violations)
        return state, Curve(case, self.direction, {**self.q_switched, case.nodes[i]: side})


def correct(linearize, z0: np.ndarray, pin: int, abort_on_rise: bool = False):
    """Newton's method on m equations in the m + 1 coordinates of z, with
    coordinate ``pin`` held at its value in ``z0``.

    ``linearize(z, pin)`` returns the residual at z and a function giving
    its Jacobian over the other m coordinates; it may first project z in
    place (:meth:`Curve.linearize` floors the magnitudes).  Returns
    ``(z, iterations, max-norm of the residual)`` once that norm is below
    TOL.  Raises ConvergenceError, carrying the iterations made and the last
    norm, after MAX_ITER iterations and, with ``abort_on_rise``, already at
    the first iteration whose norm is not below the previous iteration's
    (module docstring); raises SingularJacobianError on a singular or
    non-finite step.
    """
    z = z0.copy()
    last = math.inf
    for it in range(MAX_ITER + 1):
        g, jac = linearize(z, pin)
        norm = float(np.max(np.abs(g))) if g.size else 0.0
        if norm < TOL:
            return z, it, norm
        rising = abort_on_rise and norm >= last
        if rising or it == MAX_ITER:
            how = "diverging" if rising else "stalled"
            raise ConvergenceError(
                f"newton {how} at mismatch {norm:.3e} after {it} iterations",
                max_mismatch=norm,
                iterations=it,
            )
        last = norm
        try:
            dz = np.linalg.solve(jac(), -g)
        except np.linalg.LinAlgError:
            raise SingularJacobianError(
                f"jacobian factorization failed at iteration {it}"
            ) from None
        if not np.all(np.isfinite(dz)):
            raise SingularJacobianError(f"non-finite newton step at iteration {it}")
        z[:pin] += dz[:pin]
        z[pin + 1:] += dz[pin:]
    raise AssertionError("unreachable")


def solve(
    case: NetworkCase,
    lam: float = 0.0,
    direction=None,
    *,
    initial: PowerFlowState | None = None,
    abort_on_rise: bool = False,
) -> PowerFlowState:
    """Newton solve at fixed lambda with reactive-limit switching; each
    switching round is one :func:`correct` with lambda pinned.

    ``initial`` (default: the flat start) provides both the starting point
    and the inherited switch set; solving again from a returned state
    performs zero extra switches.  ``abort_on_rise`` is passed to
    :func:`correct`.  A ConvergenceError counts the iterations of every
    round.
    """
    start = initial if initial is not None else case.flat_state()
    curve = Curve(case, direction, start.q_switched)
    z = curve.pack(start, lam)
    total = 0
    while True:  # each round switches one more PV phase, so this ends
        try:
            z, iters, norm = correct(curve.linearize, z, curve.lam_coord, abort_on_rise)
        except ConvergenceError as exc:
            exc.iterations += total
            raise
        total += iters
        state, next_curve = curve.settle(z, iters, norm)
        if next_curve is None:
            state.newton_total = start.newton_total + total
            return state
        curve = next_curve
        z = curve.pack(state, lam)


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
