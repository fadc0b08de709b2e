"""Newton power flow over the full three-phase (bus, phase) node set.

State is polar per node; the Jacobian is assembled analytically from the
complex-voltage derivative identities

    dS/dtheta = j diag(V) conj(diag(I) - Y diag(V))
    dS/d|V|   = diag(V/|V|) conj(diag(I)) + diag(V) conj(Y diag(V/|V|))

with I = Y V.  Mismatch is g(x) = S_spec(lambda) - S(x).  One residual
(:func:`mismatch_at`) and one Jacobian builder (:func:`jacobian_at`) serve
every caller, both from one evaluation of (V, I, S) per Newton iteration.
Off the diagonal both identities vanish wherever Y does, so
:func:`jacobian_at` evaluates them only at Y's nonzeros (219 of the bundled
feeder's 1,225 entries) and scatters d(mismatch)/dx = -dS/dx on the unknown
rows/columns by precomputed index maps into a zeroed matrix, so a Newton
step solves J dx = -g; a continuation step fills its spare last column with
the growth direction.

Row/column ordering: active-power rows over all non-slack nodes (node order),
then reactive rows over PQ nodes (including PV phases switched to a reactive
limit); columns are the matching angles then magnitudes.  These node index
arrays are computed once per switch set (:meth:`NetworkCase.partition`), and
the Jacobian's index maps once per switch set and pinned coordinate
(:meth:`NetworkCase.jacobian_scatter`).

Branch currents (:func:`branch_flows`) come from one product of a stacked
branch-current matrix, one row per (branch, phase, end), with V; each
branch's loading is the largest current over its rated ends.  Y and that
matrix are built in one pass over the branches (:class:`NetworkCase`).

Every power-flow solve, whether a plain solve or a continuation step, runs
one Newton loop (:func:`correct`) on one augmented system (:class:`Curve`):
the m mismatch rows of a switch set over the m + 1 coordinates
z = [theta_p, vm_q, lambda], with one coordinate pinned.  :func:`solve` pins
lambda; a voltage limit crossing or an iterate of the fold pins one voltage
magnitude; a thermal limit crossing pins nothing and adds the equation
(|I_row| i_base / ampacity)^2 = 1 for one rated branch-current row.  After every
update the loop projects the magnitudes of its iterate onto VM_FLOOR, so each
residual is evaluated at the iterate itself.  The loop gives up after
MAX_ITER iterations.  A caller that retries a failure with a shorter step
(the steps of a continuation march) passes ``abort_on_rise``,
and the loop then gives up already at the first iteration whose mismatch
max-norm is not below the previous one: most such starts lie past the fold
or too far along the curve, and a shorter retry is cheaper than the rest of
the budget.  The max-norm can also rise once on the way to a solution, so a
caller that reads a failure as "no solution here" (the base case, limit
crossings, the fold) keeps the whole budget.

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
    iterations: int = 0
    max_mismatch: float = math.inf
    newton_total: int = 0  # cumulative over switching rounds

    def voltage(self) -> np.ndarray:
        return self.vm * np.exp(1j * self.theta)


class NetworkCase:
    """Immutable solver-ready view of a feeder: admittance matrix Y (dense,
    and its nonzeros for the Jacobian), base injections, node classification,
    the monitored nodes and the stacked branch-current matrix.  Shared
    read-only by every worker; solves never mutate it beyond filling its
    memos:

    - the node partitions, per set of switched nodes (:meth:`partition`);
    - the Jacobian's index maps, per set of switched nodes and pinned
      coordinate (:meth:`jacobian_scatter`);
    - the feasible base case (``continuation.solve_base_case``)."""

    def __init__(self, model: FeederModel):
        self.model = model
        self.nodes = model.nodes
        self.index = {node: i for i, node in enumerate(self.nodes)}
        n = len(self.nodes)
        self.n = n
        self._partitions = {}  # frozenset of switched nodes -> (idx_p, idx_q)
        self._scatters = {}  # (frozenset of switched nodes, pin) -> Jacobian maps
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

        # voltage-band scan and P rows of every switch set: every node but
        # the slack phases
        self.monitored = np.flatnonzero(~self.slack_mask)
        self.monitored.flags.writeable = False
        self.monitored_nodes = [self.nodes[i] for i in self.monitored]

        # one pass over the branches: each branch's per-unit blocks go into
        # Y and into one stacked branch-current matrix with a row per
        # (branch, phase, end), I_row = branch_current[row] @ V in pu.  The
        # rated rows come first, grouped by branch (the from end, then the to
        # end of a line; transformers are rated on the from side only), then
        # the to ends of transformers.
        y = np.zeros((n, n), dtype=complex)
        rated, unrated = [], []  # (matrix row, base current, label)
        rated_starts = []
        for br in model.branches:
            fb, tb = model.bus(br.from_bus), model.bus(br.to_bus)
            yff, yft, ytf, ytt = branch_admittance_blocks(
                br, z_base_ohm(fb), z_base_ohm(tb)
            )
            fi = [self.index[(br.from_bus, ph)] for ph in br.phases]
            ti = [self.index[(br.to_bus, ph)] for ph in br.phases]
            y[np.ix_(fi, fi)] += yff
            y[np.ix_(fi, ti)] += yft
            y[np.ix_(ti, fi)] += ytf
            y[np.ix_(ti, ti)] += ytt
            rated_starts.append(len(rated))
            for end, y_f, y_t, bus in (("from", yff, yft, fb), ("to", ytf, ytt, tb)):
                block = unrated if end == "to" and br.kind == "transformer" else rated
                for p, ph in enumerate(br.phases):
                    row = np.zeros(n, dtype=complex)
                    row[fi] += y_f[p]
                    row[ti] += y_t[p]
                    block.append((row, i_base_a(bus), (br.id, ph, end)))
        for bus in model.buses:
            for ph, kvar in bus.shunt_kvar.items():
                # shunt injecting Q at 1 pu: y = +j q_pu on the diagonal
                i = self.index[(bus.id, ph)]
                y[i, i] += 1j * (kvar / 1000.0)
        y.setflags(write=False)
        self.y = y
        rows = rated + unrated
        self.branch_current = np.array([r for r, _, _ in rows]).reshape(len(rows), n)
        self.branch_i_base = np.array([b for _, b, _ in rows])
        self.branch_rows = [label for _, _, label in rows]  # (branch id, phase, end)
        self.n_rated_rows = len(rated)
        self.rated_starts = np.array(rated_starts, dtype=int)
        self.branch_ids = [br.id for br in model.branches]
        self.ampacity = np.array([br.ampacity_a for br in model.branches])

        # Y's nonzeros and its whole diagonal, row-major, for the Jacobian
        nonzero = self.y != 0
        np.fill_diagonal(nonzero, True)
        self.y_rows, self.y_cols = np.nonzero(nonzero)
        self.y_nonzero = self.y[self.y_rows, self.y_cols]
        self.y_diag = np.flatnonzero(self.y_rows == self.y_cols)  # in node order

    # -- node partitions -----------------------------------------------------

    def partition(self, q_switched: dict):
        """(P-row node indices, Q-row node indices) for a given switch set,
        computed once per set of switched nodes; the arrays are read-only.
        The P rows are ``monitored`` for every set; the Q rows add a PV
        phase only once it is switched to PQ."""
        key = frozenset(q_switched)
        parts = self._partitions.get(key)
        if parts is None:
            switched = np.zeros(self.n, dtype=bool)
            switched[[self.index[k] for k in key]] = True
            idx_q = np.flatnonzero(~self.slack_mask & (~self.pv_mask | switched))
            idx_q.flags.writeable = False
            parts = self.monitored, idx_q
            self._partitions[key] = parts
        return parts

    def jacobian_scatter(self, q_switched: dict, pin):
        """Where :func:`jacobian_at` places its entries for a switch set, with
        the z coordinate ``pin`` (module docstring; None for none) left out:
        ``(src, dst, shape)``.  Entry ``src[j]`` of [dS/dtheta; dS/d|V|] at
        Y's nonzeros, read as interleaved reals, lands at flat index
        ``dst[j]`` of the (m, m + 1 - pinned) Jacobian.  Computed once per
        (set of switched nodes, pin)."""
        key = frozenset(q_switched), pin
        maps = self._scatters.get(key)
        if maps is None:
            idx_p, idx_q = self.partition(q_switched)
            n_p, m = len(idx_p), len(idx_p) + len(idx_q)
            row_p = np.full(self.n, -1)
            row_p[idx_p] = np.arange(n_p)
            row_q = np.full(self.n, -1)
            row_q[idx_q] = n_p + np.arange(len(idx_q))
            # each node's angle and magnitude column: its z coordinate,
            # shifted past the pinned one
            col_th, col_vm = row_p.copy(), row_q.copy()
            if pin is not None:
                for col in (col_th, col_vm):
                    col[col == pin] = -1
                    col[col > pin] -= 1
            width = m + (pin is None)
            nnz = len(self.y_rows)
            src, dst = [], []
            for part, rows in enumerate((row_p, row_q)):  # real, imaginary
                for block, cols in enumerate((col_th, col_vm)):
                    r, c = rows[self.y_rows], cols[self.y_cols]
                    k = np.flatnonzero((r >= 0) & (c >= 0))
                    src.append(2 * (block * nnz + k) + part)
                    dst.append(r[k] * width + c[k])
            maps = np.concatenate(src), np.concatenate(dst), (m, width)
            self._scatters[key] = maps
        return maps

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


def jacobian_at(case: NetworkCase, vm, v, i_bus, scatter) -> np.ndarray:
    """d(mismatch)/dx at magnitudes ``vm``, complex voltages ``v`` and bus
    currents ``i_bus`` = Y v, placed by the maps ``scatter`` of
    :meth:`NetworkCase.jacobian_scatter`; its direction column, if any, is
    left zero.  The identities are evaluated at Y's nonzeros only."""
    rows, cols, y, diag = case.y_rows, case.y_cols, case.y_nonzero, case.y_diag
    ds = np.empty((2, len(y)), dtype=complex)  # [dS/dtheta; dS/d|V|]
    a = -(y * v[cols])
    a[diag] += i_bus
    np.multiply(1j * v[rows], np.conj(a), out=ds[0])
    vnorm = v / vm
    np.multiply(v[rows], np.conj(y * vnorm[cols]), out=ds[1])
    ds[1, diag] += vnorm * np.conj(i_bus)
    src, dst, shape = scatter
    jac = np.zeros(shape)
    jac.reshape(-1)[dst] = -ds.reshape(-1).view(np.float64)[src]
    return jac


class Curve:
    """The power-flow equations of one switch set over the augmented
    coordinates z = [theta_p, vm_q, lambda]: m mismatch rows in m + 1
    unknowns, made square by pinning lambda (``lam_coord``) or one magnitude
    (:meth:`vm_coord`), or, given ``loading_row``, by the extra equation
    "the loading of that rated row of ``NetworkCase.branch_current`` is 1"
    with nothing pinned."""

    def __init__(self, case, direction, q_switched, loading_row=None):
        self.case = case
        self.direction = direction
        self.q_switched = dict(q_switched)
        self.idx_p, self.idx_q = case.partition(q_switched)
        self.n_p = len(self.idx_p)
        self.lam_coord = self.n_p + len(self.idx_q)
        self._spec_at = None  # (lambda, specified injections) last evaluated
        self.loading_row = loading_row
        if loading_row is not None:
            # the row's current in units of its branch's ampacity
            k = np.searchsorted(case.rated_starts, loading_row, "right") - 1
            self._w = case.branch_current[loading_row] * (
                case.branch_i_base[loading_row] / case.ampacity[k]
            )

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
        return PowerFlowState(vm, theta, dict(self.q_switched), iterations, norm)

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
        jac = jacobian_at(
            self.case, vm, v, i_bus, self.case.jacobian_scatter(self.q_switched, pin)
        )
        if pin != self.lam_coord:
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
        if self.loading_row is None:
            return g, lambda: self._jacobian(vm, v, i_bus, pin)
        i_row = self._w @ v
        g = np.append(g, i_row.real ** 2 + i_row.imag ** 2 - 1.0)
        return g, lambda: self._loading_jacobian(vm, v, i_bus, i_row)

    def _loading_jacobian(self, vm, v, i_bus, i_row):
        """The augmented Jacobian with the loading equation's row below it:
        d|I|^2/dx_j = 2 Re(conj(I) w_j dV_j/dx_j) for I = w V."""
        dv = 2.0 * np.conj(i_row) * self._w * v
        row = np.concatenate([(1j * dv).real[self.idx_p], (dv / vm).real[self.idx_q], [0.0]])
        return np.vstack([self._jacobian(vm, v, i_bus, None), row])

    def settle(self, z, iterations, norm):
        """The state at a converged z and the curve of the next switching
        round, None once no unswitched PV phase violates its reactive limit.

        The next round switches the nearest violation (module docstring).
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
            if case.nodes[i] in self.q_switched:
                continue
            qg = s.imag[i] - (case.q0[i] + lam * dq[i])
            if qg > case.q_max[i]:
                violations.append((qg - case.q_max[i], i, "max"))
            elif qg < case.q_min[i]:
                violations.append((case.q_min[i] - qg, i, "min"))
        if not violations:
            return state, None
        _, i, side = min(violations)
        switched = {**self.q_switched, case.nodes[i]: side}
        return state, Curve(case, self.direction, switched, self.loading_row)


def correct(linearize, z0: np.ndarray, pin: int | None, abort_on_rise: bool = False):
    """Newton's method on m equations in the m + 1 coordinates of z, with
    coordinate ``pin`` held at its value in ``z0``, or on m + 1 equations
    with nothing held when ``pin`` is None.

    ``linearize(z, pin)`` returns the residual at z and a function giving
    its Jacobian over the other coordinates; it may first project z in
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
        if pin is None:
            z += dz
        else:
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
class BranchFlows:
    """Branch currents of one state, from one stacked product."""

    amps: np.ndarray  # |I| in amps per row of ``NetworkCase.branch_rows``
    loading: np.ndarray  # max amps over rated ends / ampacity, per ``branch_ids``


def branch_flows(case: NetworkCase, state: PowerFlowState) -> BranchFlows:
    """Current in amps at every (branch, phase, end) and each branch's
    loading, from one product of the stacked branch-current matrix."""
    amps = np.abs(case.branch_current @ state.voltage()) * case.branch_i_base
    worst = np.maximum.reduceat(amps[: case.n_rated_rows], case.rated_starts)
    return BranchFlows(amps, worst / case.ampacity)
