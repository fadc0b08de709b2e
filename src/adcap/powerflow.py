"""Newton power flow over the three-phase (bus, phase) node set.

State is polar per node; the Jacobian is assembled analytically from the
complex-voltage derivative identities

    dS/dtheta = j diag(V) conj(diag(I) - Y diag(V))
    dS/d|V|   = diag(V/|V|) conj(diag(I)) + diag(V) conj(Y diag(V/|V|))

with I = Y V.  Mismatch is g(x) = S_spec(lambda) - S(x).  One residual
(:meth:`Curve.linearize`) and one Jacobian assembly (:func:`jacobian_at`)
serve every caller, both from one evaluation of (V, I, S) per Newton
iteration.

Every Newton system runs on a Kron reduction of Y (Doerfler & Bullo, IEEE
TCAS-I 2013; :class:`Reduction`).  A node that carries no load, no
generator, no slack or PV phase and no entry of the growth direction
injects no current, so with E those nodes and K the rest, V_E = R V_K for
R = -Y_EE^-1 Y_EK, and the kept nodes see Y_KK + Y_KE R.  The reduction is
a pure function of the feeder and of the nodes the direction touches, and
is computed once per such set (:meth:`NetworkCase.reduction`); if Y_EE is
singular or ill-conditioned (MAX_ELIM_COND) nothing is eliminated, which is
the full network.  Along the bundled scenario's directions 10 of 35 nodes
go, the Newton system shrinks from m = 64 to 44, and the reduced Y has 183
nonzeros in 25 x 25.  States stay full length: R recovers the eliminated
voltages of every solved point.

Off the diagonal both identities vanish wherever Y does, so
:func:`jacobian_at` evaluates them only at the reduced Y's nonzeros and
scatters d(mismatch)/dx = -dS/dx on the unknown rows/columns by
precomputed index maps into a copy of a template, so a Newton step solves
J dx = -g.  The template holds what no iterate changes: the growth
direction in the spare last column of a continuation step, and the unit
row below the Jacobian that borders a tangent's system.

Row/column ordering: active-power rows over the kept non-slack nodes (node
order), then reactive rows over the kept PQ nodes (including PV phases
switched to a reactive limit); columns are the matching angles then
magnitudes.  A reduction computes its rows once per switch set
(:meth:`Reduction.partition`) and the Jacobian's index maps once per switch
set and pinned coordinate (:meth:`Reduction.jacobian_scatter`).

A :class:`Curve` is one switch set's system along one direction; a
continuation trace builds it once per switch set of its points, and a
switching round of :func:`solve` builds its own.  It precomputes what its
iterates share: its rows' flat positions in the complex power read as
interleaved reals, the base injections and the direction on those rows
and the switched reactive limits, so the residual is spec - S at those
positions with spec = spec0 + lambda dir (the limits added after) evaluated
once per lambda; each free magnitude's coordinate; and per pinned
coordinate the Jacobian's maps and template.  At m = 44 a
trace's cost is call overhead, not LAPACK: a Newton iteration takes about
48 us (timeit), of which the residual takes 8, the Jacobian 16 and
``np.linalg.solve`` 20, only about 12 of them in LAPACK's ``dgesv``; the
rest is numpy's per-call work on arrays of 44 to 624 entries.  Cutting the
cost further means fewer solves, not a faster one.

Branch currents (:func:`branch_flows`) come from one product of a stacked
branch-current matrix, one row per (branch, phase, end), with V; each
branch's loading is the largest current over its rated ends.  Y and that
matrix are built in one pass over the branches (:class:`NetworkCase`).

Every power-flow solve (the base case, a step of a continuation march, a
limit crossing, an iterate of the fold) is one call of :func:`solve`, the
one reactive-limit switching driver, and each of its switching rounds runs
one Newton loop (:func:`correct`) on one augmented system (:class:`Curve`):
the m mismatch rows of a switch set over the m + 1 coordinates
z = [theta_p, vm_q, lambda], with one coordinate pinned.  The base case and
a march step pin lambda; a limit crossing at a kept node or an iterate of
the fold pins one kept voltage magnitude; any other limit crossing pins
nothing, on a curve that adds one bordered limit row |w V|^2 = c^2: for a
thermal crossing w is a rated
branch-current row in units of its ampacity and c = 1, for a voltage
crossing at an eliminated node w is that node's recovery row and c the band
edge.  After every update the loop projects the magnitudes of its iterate
onto VM_FLOOR, so each residual is evaluated at the iterate itself.  The
loop stops once the mismatch max-norm is below its tolerance: TOL, unless
the caller passes a tighter one (a limit crossing converges to 1e-11).  It
gives up after MAX_ITER iterations.  A caller that retries a failure with
a shorter step (the steps of a continuation march) passes
``abort_on_rise``, and the loop then gives up already at the first
iteration whose mismatch max-norm is not below the previous one: most such
starts lie past the fold or too far along the curve, and a shorter retry
is cheaper than the rest of the budget.  The max-norm can also rise once on
the way to a solution, so a caller that reads a failure as "no solution
here" (the base case, limit crossings, the fold) keeps the whole budget.

Reactive limits follow one rule in every solve: after each converged round,
the PV phase whose reactive output exceeds its limit by the smallest margin
(node order breaking ties) is switched to PQ at that limit and the round is
solved again on the same system of the new switch set (same direction, pin
and limit row), until no unswitched PV phase is in violation.  A solved state
carries its switch set and its z, so re-solving from it performs no further
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
# largest condition number of the eliminated nodes' block of Y; a worse
# block is not eliminated, as its recovery would amplify rounding
MAX_ELIM_COND = 1e8


@dataclass
class PowerFlowState:
    vm: np.ndarray  # pu, per node
    theta: np.ndarray  # rad, per node
    q_switched: dict = field(default_factory=dict)  # (bus, phase) -> "min"/"max"
    iterations: int = 0
    max_mismatch: float = math.inf
    newton_total: int = 0  # of its solve, summed over the switching rounds
    z: np.ndarray | None = None  # of its solve: the converged point on the last round's curve

    def voltage(self) -> np.ndarray:
        return self.vm * np.exp(1j * self.theta)


class NetworkCase:
    """Immutable solver-ready view of a feeder: admittance matrix Y, base
    injections, node classification, the monitored nodes and the stacked
    branch-current matrix.  Shared read-only by every worker; solves never
    mutate it beyond filling its memos:

    - the Kron reductions, per set of kept nodes (:meth:`reduction`), each
      with memos of its own, built at a case's first solve;
    - the feasible base case (``continuation.solve_base_case``)."""

    def __init__(self, model: FeederModel):
        self.model = model
        self.nodes = model.nodes
        self.index = {node: i for i, node in enumerate(self.nodes)}
        n = len(self.nodes)
        self.n = n
        self._reductions = {}  # bytes of the kept-node mask -> Reduction
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
        # nodes no reduction eliminates: the slack and PV phases and every
        # node with a load or a generator
        self._held = self.slack_mask | self.pv_mask
        for load in model.loads:
            i = self.index[(load.bus, load.phase)]
            self._held[i] = True
            self.p0[i] -= load.p_kw / 1000.0
            self.q0[i] -= load.q_kvar / 1000.0
        self.q_min = np.zeros(n)  # summed over the pv generators of each node
        self.q_max = np.zeros(n)
        for g in model.generators:
            share = 1.0 / len(g.phases)
            for ph in g.phases:
                i = self.index[(g.bus, ph)]
                self._held[i] = True
                self.p0[i] += g.p_kw * share / 1000.0
                if g.gen_type == "pq":
                    self.q0[i] += g.q_kvar * share / 1000.0
                else:
                    self.q_min[i] += g.q_min_kvar * share / 1000.0
                    self.q_max[i] += g.q_max_kvar * share / 1000.0

        self.pv_nodes = [i for i in range(n) if self.pv_mask[i]]

        # voltage-band scan: every node but the slack phases
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

    def reduction(self, direction) -> "Reduction":
        """The network of every Newton system along ``direction`` (a pair
        of per-node arrays, or None): Y Kron-reduced onto the nodes held
        (the slack and PV phases, loads and generators) and those the
        direction touches.  Computed once per set of kept nodes."""
        keep = self._held
        if direction is not None:
            dp, dq = direction
            keep = keep | (dp != 0) | (dq != 0)
        key = keep.tobytes()
        red = self._reductions.get(key)
        if red is None:
            red = self._reductions[key] = Reduction(self, keep)
        return red

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


class Reduction:
    """Y Kron-reduced onto a set of kept nodes (module docstring).  Every
    other node injects no current, so its voltage is ``recover`` @ V_kept
    and the kept nodes see Y_kk + Y_ke ``recover``; keeping every node is
    the full network.  Holds the reduced Y, dense and as its nonzeros for
    the Jacobian, and memoises, per set of switched nodes, the rows of its
    Newton system (:meth:`partition`) and, per pinned coordinate too, the
    Jacobian's index maps (:meth:`jacobian_scatter`)."""

    def __init__(self, case: NetworkCase, keep: np.ndarray):
        self.case = case
        elim = np.flatnonzero(~keep)
        y = case.y
        if elim.size:
            sv = np.linalg.svd(y[np.ix_(elim, elim)], compute_uv=False)
            if not sv[-1] > sv[0] / MAX_ELIM_COND:  # singular or ill-conditioned
                keep = np.ones(case.n, dtype=bool)
        kept, elim = np.flatnonzero(keep), np.flatnonzero(~keep)
        self.kept, self.elim = kept, elim
        self.local = np.full(case.n, -1)  # node index -> position among the kept
        self.local[kept] = np.arange(len(kept))
        self.recover = -np.linalg.solve(y[np.ix_(elim, elim)], y[np.ix_(elim, kept)])
        self._ref = case.theta_ref[elim]  # the eliminated nodes' phase references
        self._unref = np.exp(-1j * self._ref)
        self.y = y[np.ix_(kept, kept)] + y[np.ix_(kept, elim)] @ self.recover
        self.v_set = case.v_set[kept]
        self.theta_ref = case.theta_ref[kept]
        self._partitions = {}  # frozenset of switched nodes -> rows
        self._scatters = {}  # (frozenset of switched nodes, pin) -> Jacobian maps

        # the reduced Y's nonzeros and its whole diagonal, row-major
        nonzero = self.y != 0
        np.fill_diagonal(nonzero, True)
        self.y_rows, self.y_cols = np.nonzero(nonzero)
        self.y_nonzero = self.y[self.y_rows, self.y_cols]
        self.y_diag = np.flatnonzero(self.y_rows == self.y_cols)  # in kept order

    def expand(self, vm, theta):
        """Full (vm, theta) from those of the kept nodes, the eliminated
        angles taken next to their phase's reference."""
        case = self.case
        full_vm, full_theta = np.empty(case.n), np.empty(case.n)
        full_vm[self.kept], full_theta[self.kept] = vm, theta
        v = self.recover @ (vm * np.exp(1j * theta))
        full_vm[self.elim] = np.abs(v)
        w = v * self._unref
        full_theta[self.elim] = self._ref + np.arctan2(w.imag, w.real)
        return full_vm, full_theta

    def partition(self, q_switched: dict):
        """The rows of this reduction's Newton system for a switch set: P rows
        at every kept node but the slack phases, Q rows at those same nodes
        but the PV phases not switched to a reactive limit.  Returns
        ``(idx_p, idx_q, loc_p, loc_q)``, the rows as node indices, then as
        positions among the kept nodes; read-only arrays, computed once per
        set of switched nodes."""
        key = frozenset(q_switched)
        rows = self._partitions.get(key)
        if rows is None:
            case = self.case
            idx_p = self.kept[~case.slack_mask[self.kept]]
            pq = ~case.pv_mask
            pq[[case.index[k] for k in key]] = True
            idx_q = idx_p[pq[idx_p]]
            rows = idx_p, idx_q, self.local[idx_p], self.local[idx_q]
            for a in rows:
                a.flags.writeable = False
            self._partitions[key] = rows
        return rows

    def jacobian_scatter(self, q_switched: dict, pin):
        """Where :func:`jacobian_at` places its entries for a switch set, with
        the z coordinate ``pin`` (module docstring; None for none) left out:
        ``(src, dst, shape)``.  Entry ``src[j]`` of [dS/dtheta; dS/d|V|] at
        the reduced Y's nonzeros, read as interleaved reals, lands at flat
        index ``dst[j]`` of the (m, m + 1 - pinned) Jacobian.  Computed once
        per (set of switched nodes, pin)."""
        key = frozenset(q_switched), pin
        maps = self._scatters.get(key)
        if maps is None:
            loc_p, loc_q = self.partition(q_switched)[2:]
            n_p, m = len(loc_p), len(loc_p) + len(loc_q)
            row_p = np.full(len(self.kept), -1)
            row_p[loc_p] = np.arange(n_p)
            row_q = np.full(len(self.kept), -1)
            row_q[loc_q] = n_p + np.arange(len(loc_q))
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


def _complex_power(y, vm, theta):
    v = vm * np.exp(1j * theta)
    i_bus = y @ v
    return v, i_bus, v * np.conj(i_bus)


def jacobian_at(net: Reduction, vm, v, i_bus, layout) -> np.ndarray:
    """d(mismatch)/dx at the kept nodes' magnitudes ``vm``, complex voltages
    ``v`` and bus currents ``i_bus`` = Y v of the reduction ``net``, placed
    by ``layout`` = ``(src, dst, template)`` (built by ``Curve``): the
    maps of :meth:`Reduction.jacobian_scatter` and a matrix holding every
    entry no iterate changes, into a copy of which the scatter writes.  The
    identities are evaluated at the reduced Y's nonzeros only."""
    rows, cols, y, diag = net.y_rows, net.y_cols, net.y_nonzero, net.y_diag
    v_rows = v[rows]
    ds = np.empty((2, len(y)), dtype=complex)
    ds_dth, ds_dvm = ds
    a = -(y * v[cols])
    a[diag] += i_bus
    np.multiply(1j * v_rows, np.conj(a), out=ds_dth)
    vnorm = v / vm
    np.multiply(v_rows, np.conj(y * vnorm[cols]), out=ds_dvm)
    ds_dvm[diag] += vnorm * np.conj(i_bus)
    src, dst, template = layout
    jac = template.copy()
    jac.reshape(-1)[dst] = -ds.reshape(-1).view(np.float64)[src]
    return jac


class Curve:
    """The power-flow equations of one switch set over the augmented
    coordinates z = [theta_p, vm_q, lambda] of the kept nodes of the
    direction's reduction (:meth:`NetworkCase.reduction`, or ``net``): m
    mismatch rows in m + 1 unknowns, made square by pinning lambda
    (``lam_coord``) or one kept magnitude (:meth:`vm_coord`), or, given
    ``limit = (w, c)``, by the bordered limit row |w V|^2 = c^2 for a
    per-node row ``w`` with nothing pinned.

    A curve precomputes what its iterates share (module docstring)."""

    def __init__(self, case, direction, q_switched, limit=None, net=None):
        self.case = case
        self.direction = direction
        self.q_switched = dict(q_switched)
        self.net = net = case.reduction(direction) if net is None else net
        self.idx_p, self.idx_q, self._loc_p, self._loc_q = net.partition(q_switched)
        n_p = self.n_p = len(self.idx_p)
        self.lam_coord = n_p + len(self.idx_q)
        # P is the real part, Q the imaginary part of the complex power
        self._rows = np.concatenate([2 * self._loc_p, 2 * self._loc_q + 1])
        self._vm_coords = dict(zip(self.idx_q.tolist(), range(n_p, self.lam_coord)))
        self._spec0 = np.concatenate([case.p0[self.idx_p], case.q0[self.idx_q]])
        dp, dq = direction if direction is not None else (np.zeros(case.n),) * 2
        self._dir = np.concatenate([dp[self.idx_p], dq[self.idx_q]])
        self._q_lim = None  # (rows, values) of the switched reactive limits
        if self.q_switched:
            nodes = [case.index[key] for key in self.q_switched]
            self._q_lim = (
                np.array([self._vm_coords[i] for i in nodes]),
                np.array([
                    case.q_min[i] if side == "min" else case.q_max[i]
                    for i, side in zip(nodes, self.q_switched.values())
                ]),
            )
        self._spec_lam = self._spec = None  # the specified injections last evaluated
        self._layouts = {}  # (pin, unit) -> Jacobian layout
        self.limit = limit
        if limit is not None:
            w, c = limit
            # the row over the kept voltages: eliminated ones are recovered
            self._w = w[net.kept] + w[net.elim] @ net.recover
            self._c2 = c * c

    def pack(self, state, lam):
        return np.concatenate(
            [state.theta[self.idx_p], state.vm[self.idx_q], [lam]]
        )

    def _kept(self, z):
        """(vm, theta) of the kept nodes at z; pinned PV magnitudes and the
        slack sit at their set points."""
        vm = self.net.v_set.copy()
        theta = self.net.theta_ref.copy()
        theta[self._loc_p] = z[: self.n_p]
        vm[self._loc_q] = z[self.n_p:-1]
        return vm, theta

    def unpack(self, z):
        """Full (vm, theta) at z, the eliminated nodes recovered."""
        return self.net.expand(*self._kept(z))

    def state(self, z, iterations=0, norm=0.0) -> PowerFlowState:
        vm, theta = self.unpack(z)
        return PowerFlowState(vm, theta, dict(self.q_switched), iterations, norm)

    def vm_coord(self, node_index):
        """Position in z of the magnitude at a node index; None unless that
        node is kept and its magnitude free."""
        return self._vm_coords.get(node_index)

    def jacobian(self, vm, theta, pin=None, unit=None):
        """d(mismatch)/dz at the full (vm, theta) without column ``pin``:
        the power-flow Jacobian when lambda is pinned, else the augmented
        [d(mismatch)/dx | direction] with column ``pin`` removed (kept whole
        for ``pin=None``).  Given the coordinate ``unit``, one more row
        below, zero but for a 1 there: the bordered matrix of a tangent
        with that entry 1 (``continuation.tangent``)."""
        kept = self.net.kept
        vm = vm[kept]
        v, i_bus, _ = _complex_power(self.net.y, vm, theta[kept])
        return jacobian_at(self.net, vm, v, i_bus, self._layout(pin, unit))

    def _layout(self, pin, unit=None):
        """``(src, dst, template)`` of :meth:`jacobian` for
        :func:`jacobian_at`, built once per (pin, unit): the maps of
        :meth:`Reduction.jacobian_scatter` and a zero matrix holding the
        direction column, unless lambda is pinned, and the unit row, if
        any."""
        key = pin, unit
        layout = self._layouts.get(key)
        if layout is None:
            src, dst, (m, width) = self.net.jacobian_scatter(self.q_switched, pin)
            template = np.zeros((m + (unit is not None), width))
            if pin != self.lam_coord:
                template[:m, -1] = self._dir
            if unit is not None:
                template[m, unit] = 1.0
            layout = self._layouts[key] = src, dst, template
        return layout

    def linearize(self, z, pin):
        """Project the magnitudes of z onto VM_FLOOR in place, then return
        the mismatch at z and a function giving its Jacobian without
        column ``pin``; both read one complex-power evaluation."""
        vm_q = z[self.n_p:-1]
        np.maximum(vm_q, VM_FLOOR, out=vm_q)
        vm, theta = self._kept(z)
        lam = z[-1]
        if lam != self._spec_lam:  # once per solve while lambda is pinned
            spec = self._spec0 + lam * self._dir
            if self._q_lim is not None:
                spec[self._q_lim[0]] += self._q_lim[1]
            self._spec_lam, self._spec = lam, spec
        v, i_bus, s = _complex_power(self.net.y, vm, theta)
        g = self._spec - s.view(np.float64)[self._rows]
        if self.limit is None:
            return g, lambda: jacobian_at(self.net, vm, v, i_bus, self._layout(pin))
        i_row = self._w @ v
        g = np.append(g, i_row.real ** 2 + i_row.imag ** 2 - self._c2)
        return g, lambda: self._limit_jacobian(vm, v, i_bus, i_row)

    def _limit_jacobian(self, vm, v, i_bus, i_row):
        """The augmented Jacobian with the limit row below it:
        d|I|^2/dx_j = 2 Re(conj(I) w_j dV_j/dx_j) for I = w V.  The row
        takes the place of a tangent's unit row, lambda's entry zero."""
        dv = 2.0 * np.conj(i_row) * self._w * v
        jac = jacobian_at(self.net, vm, v, i_bus, self._layout(None, self.lam_coord))
        border = jac[-1]
        border[: self.n_p] = (1j * dv).real[self._loc_p]
        border[self.n_p:-1] = (dv / vm).real[self._loc_q]
        border[-1] = 0.0
        return jac

    def settle(self, z, iterations, norm):
        """The state at a converged z and the switch set of the next
        switching round, None once no unswitched PV phase violates its
        reactive limit.

        The next round switches the nearest violation (module docstring).
        """
        case = self.case
        state = self.state(z, iterations, norm)
        if not case.pv_nodes:
            return state, None
        lam = z[-1]
        _, _, s = _complex_power(self.net.y, *self._kept(z))
        dq = self.direction[1] if self.direction is not None else np.zeros(case.n)
        violations = []
        for i in case.pv_nodes:
            if case.nodes[i] in self.q_switched:
                continue
            qg = s.imag[self.net.local[i]] - (case.q0[i] + lam * dq[i])
            if qg > case.q_max[i]:
                violations.append((qg - case.q_max[i], i, "max"))
            elif qg < case.q_min[i]:
                violations.append((case.q_min[i] - qg, i, "min"))
        if not violations:
            return state, None
        _, i, side = min(violations)
        return state, {**self.q_switched, case.nodes[i]: side}


def correct(
    linearize, z0: np.ndarray, pin: int | None, abort_on_rise: bool = False, tol: float = TOL
):
    """Newton's method on m equations in the m + 1 coordinates of z, with
    coordinate ``pin`` held at its value in ``z0``, or on m + 1 equations
    with nothing held when ``pin`` is None.

    ``linearize(z, pin)`` returns the residual at z and a function giving
    its Jacobian over the other coordinates; it may first project z in
    place (:meth:`Curve.linearize` floors the magnitudes).  Returns
    ``(z, iterations, max-norm of the residual)`` once that norm is below
    ``tol``.  Raises ConvergenceError, carrying the iterations made and the last
    norm, after MAX_ITER iterations and, with ``abort_on_rise``, already at
    the first iteration whose norm is not below the previous iteration's
    (module docstring); raises SingularJacobianError on a singular or
    non-finite step.
    """
    z = z0.copy()
    last = math.inf
    for it in range(MAX_ITER + 1):
        g, jac = linearize(z, pin)
        norm = float(np.abs(g).max()) if g.size else 0.0
        if norm < tol:
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
        if not np.isfinite(dz).all():
            raise SingularJacobianError(f"non-finite newton step at iteration {it}")
        if pin is None:
            z += dz
        else:
            z[:pin] += dz[:pin]
            z[pin + 1:] += dz[pin:]
    raise AssertionError("unreachable")


def solve(curve: Curve, z, node=None, *, tol=TOL, abort_on_rise=False) -> PowerFlowState:
    """Newton solve from the packed point ``z`` on ``curve`` with
    reactive-limit switching (module docstring), each switching round one
    :func:`correct` on that round's curve.  The pin: nothing on a curve
    with a limit row, else lambda when ``node`` is None, else the magnitude
    at the node index ``node``, looked up on each round's curve.  The next
    round's curve is the same system on the next switch set.

    Returns the last round's state with its converged ``z`` and the
    iterations of every round in ``newton_total``; solving again from that
    z on its switch set's curve performs no further switching.  ``tol`` and
    ``abort_on_rise`` are passed to :func:`correct`.  A ConvergenceError
    counts the iterations of every round.
    """
    total = 0
    while True:  # each round switches one more PV phase, so this ends
        if curve.limit is not None:
            pin = None
        elif node is None:
            pin = curve.lam_coord
        else:
            pin = curve.vm_coord(node)
        try:
            z, iters, norm = correct(curve.linearize, z, pin, abort_on_rise, tol)
        except ConvergenceError as exc:
            exc.iterations += total
            raise
        total += iters
        state, switched = curve.settle(z, iters, norm)
        if switched is None:
            state.z, state.newton_total = z, total
            return state
        curve = Curve(curve.case, curve.direction, switched, curve.limit, curve.net)
        z = curve.pack(state, z[-1])


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
