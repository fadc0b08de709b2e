"""Continuation of the lambda-parameterized power-flow curve and extraction
of delivery margins.

The driver marches in the load-growth parameter lambda: every step is a
power-flow solve at a pinned lambda.  Every solve of a trace (step,
crossing, fold iterate) is one call of ``powerflow.solve``, the one
reactive-limit switching driver, with the pin of its kind.  A trace builds
one ``powerflow.Curve`` per switch set on the one reduction of its
direction, and every step, crossing and fold iterate in that set starts on
it, or on its system bordered by a limit row.  A point's z = [theta_p,
vm_q, lambda] is its solve's (``PowerFlowState.z``); only the base point's
is packed, as the base case is solved on another reduction.  A step hands
``powerflow.solve`` its point's curve and its prediction, the step's
lambda set in it.  Every corrector starts from a polynomial through what
the trace already holds (``interpolate``); a predictor reads the last
points on the curve it predicts on, and across a switch set falls back to
the chord or secant, the other point packed on that curve.  A step starts,
in lambda, from the tangent at the base point for the first step, from
that tangent and the two points for the second, and from the polynomial
through the last three points after that, with that tangent while the
first of them is the base point.  The first step is STEP0 long, a rejected
step is retried at half the length, and the step doubles, up to STEP_MAX,
after every correction of at most EASY_ITERS iterations: the margins of a
trace lie a few tenths apart in lambda, so a short march of long steps
brackets them, and each crossing is solved directly (below), not by
shortening the steps.  A step is accepted only at nonnegative lambda and
within MAX_VM_STEP in every magnitude of the point it started from;
further away it has slid onto the lower branch.

The march stops at the first of three signs of the nose: a secant along
which some magnitude moves further than lambda; the first step that fails
or is rejected while the march holds two points, which is most often the
step past the nose; or a step that fails down to the step floor STEP_MIN.
The fold is solved from there.  Only at the first failed step may that
solve fail: the march then halves on as before, and waits for one of the
other two signs.

The collapse point is solved directly.  At the fold lambda is
stationary along the curve, so with eta the free voltage magnitude that
moved most over the last step, the fold is the root of s(eta) = d lambda /
d eta, the lambda entry of the tangent dz / d eta, the one with eta's entry
1 (``tangent``).  Eta is always a magnitude of the Newton system, which
holds only the nodes its Kron reduction keeps
(``powerflow.NetworkCase.reduction``).  A secant on s starts from the last
two points; each iterate is one solve of the power flow's augmented system
(``powerflow.Curve``) with eta pinned and lambda free (``powerflow.solve``),
from the cubic Hermite in eta through the two
latest points and their tangents, followed by one tangent solve on the
augmented Jacobian there.  An iterate is judged like a march step, but from
the start it corrects from, not from the last point: the fold can lie
further than MAX_VM_STEP from the last point when the step past the nose
was long.  The secant stops once the quadratic estimate of the lambda
still to gain is at most TOL times lambda.  A march of one point takes its
first iterate where its pending step would have started.

A limit crossing (voltage band, branch ampacity) is bracketed between two
accepted points, the fold included, and solved directly by the same
corrector: the element binding at the violated end is held at its limit
and lambda floats.  Every crossing starts at the zero of the binding side's
margin (``LimitStatus.v_lower_margin``, ``v_upper_margin`` or
``thermal_margin``): on the quadratic in that margin through the point
before the bracket and the bracket's ends, when all three lie on one switch
set and the margin is monotone over them; else on the chord between the
ends.  A node the reduction keeps is held by pinning its magnitude at the
band edge; an eliminated node, or a branch, by one bordered limit row of
``Curve``: |V| of the node's recovered voltage at the band edge, or the
current of the branch's most loaded rated row at its ampacity.  Crossings
converge to CROSSING_TOL (1e-11), three orders below the march's
``powerflow.TOL``, so a crossing's lambda does not depend, at that level,
on where it was started from.  If another element of the class lies
further out than CROSSING_TOL at the solution, it is held instead (at most
MAX_REPINS times).  A crossing not solved inside its bracket fails the
trace.  Violations that first appear past the fold are ignored: every
margin is evaluated on the upper branch only.

A trace decides its result once (``AdcResult``): per class its lambda, MW
margin and binding label, the class of the overall margin, and its curve,
one ``CurvePoint`` per accepted point in the order accepted, from the base
case to the fold (to the first point past LAMBDA_CAP on a capped trace).
A run's trace memo (``trace_adc``) returns a stored result, curve included,
and never traces a stored direction again.

Every setting is a module constant, not an option: the step control,
lambda cap, point budget, re-pin cap and crossing tolerance below (STEP0
... CROSSING_TOL), and the Newton tolerance, iteration budget and magnitude
floor of the shared loop (``powerflow.TOL``, ``MAX_ITER``, ``VM_FLOOR``),
which also bound the fold secant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    InfeasibleBaseCaseError,
    SingularJacobianError,
    ZeroDirectionError,
)
from . import powerflow as pf
# nothing here calls it: perfbench's tracer wraps every name of its TRACED
# list, this one included, so it stays importable from this module
from .powerflow import correct

CLASSES = ("voltage", "thermal", "collapse")  # the margin classes of a trace, in report order

# Step control: the first lambda step, its bounds, and doubling after
# every correction of at most EASY_ITERS Newton iterations
STEP0 = 0.25
STEP_MAX = 0.5
STEP_MIN = 1e-4
EASY_ITERS = 3
LAMBDA_CAP = 20.0  # a trace passing this lambda stops there, flagged capped
MAX_POINTS = 600  # step attempts per trace, rejected ones included
MAX_REPINS = 3  # times one crossing is solved again with another element held
# largest voltage-magnitude change accepted in one step; a converged
# corrector that moved further has almost certainly slid onto the lower
# branch, so the step is rejected like a corrector failure
MAX_VM_STEP = 0.15
# mismatch max-norm a limit crossing converges to, below the march's
# powerflow.TOL, so a crossing's lambda does not depend on where it started
CROSSING_TOL = 1e-11


@dataclass
class CurvePoint:
    lam: float
    min_vm: float
    max_loading: float


@dataclass
class LimitStatus:
    """Margins are positive while the constraint holds."""

    v_lower_margin: float
    v_upper_margin: float
    thermal_margin: float
    v_lower_node: tuple
    v_upper_node: tuple
    thermal_branch: str

    def violated(self) -> list:
        out = []
        if self.v_lower_margin < 0:
            out.append(("voltage_lower", self.v_lower_node, self.v_lower_margin))
        if self.v_upper_margin < 0:
            out.append(("voltage_upper", self.v_upper_node, self.v_upper_margin))
        if self.thermal_margin < 0:
            out.append(("thermal", self.thermal_branch, self.thermal_margin))
        return out


@dataclass
class AdcResult:
    lambdas: dict  # class of CLASSES -> lambda at first violation / fold
    adc_mw: dict  # class -> lambda * positive load-increase direction
    binding_class: str  # the class of the smallest lambda; its adc_mw is the overall ADC
    binding_element: dict  # class -> report label ("611.c:lower", a branch id) or None
    curve: list  # one CurvePoint per accepted point, in the order accepted
    capped: bool = False
    n_solves: int = 0  # converged solves, each once however it switched; not the cached base case
    n_newton: int = 0  # every Newton iteration, failed runs included


def check_limits(case: pf.NetworkCase, state: pf.PowerFlowState) -> LimitStatus:
    """Voltage-band and ampacity margins of a solved state.

    Slack phases are excluded from the voltage scan (their magnitude is a
    boundary condition, not a delivered quantity).
    """
    limits = case.model.limits
    vm = state.vm[case.monitored]
    i_lo = int((vm - limits.v_min_pu).argmin())
    i_hi = int((limits.v_max_pu - vm).argmin())
    loading = pf.branch_flows(case, state).loading
    i_th = int(loading.argmax())
    return LimitStatus(
        float(vm[i_lo] - limits.v_min_pu),
        float(limits.v_max_pu - vm[i_hi]),
        float(1.0 - loading[i_th]),
        case.monitored_nodes[i_lo],
        case.monitored_nodes[i_hi],
        case.branch_ids[i_th],
    )


def solve_base_case(case: pf.NetworkCase):
    """Solve the base case (lambda = 0) and check every operating limit there.

    Returns ``(state, status)``; raises InfeasibleBaseCaseError naming each
    violated limit.  The base case does not depend on the variation
    direction, so the first feasible result is kept on the case
    (``NetworkCase.base_case``) and returned by every later call: a run
    solves it once, for its gate, and pool workers inherit it with the case.
    """
    if case.base_case is None:
        curve = pf.Curve(case, None, {})
        state = pf.solve(curve, curve.pack(case.flat_state(), 0.0))
        status = check_limits(case, state)
        bad = status.violated()
        if bad:
            desc = "; ".join(
                f"{k} at {el if isinstance(el, str) else '.'.join(el)}" for k, el, _ in bad
            )
            raise InfeasibleBaseCaseError(
                f"base case violates operating limits: {desc}", violations=bad
            )
        case.base_case = state, status
    return case.base_case


# -- predictors over augmented vectors z = [theta_p, vm_q, lambda] -------------

def interpolate(nodes, x):
    """Value at ``x`` of the polynomial through ``nodes``, each ``(x_i, z_i)``
    or ``(x_i, z_i, dz_i)``: a node fixes the value z_i at x_i and, given
    dz_i, the derivative there too (Hermite interpolation by Newton's divided
    differences, the abscissa of a derivative taken twice).  Two values give
    the secant, a value and a derivative the tangent, three values the
    quadratic, two values and two derivatives the cubic Hermite.  Distinct
    nodes need distinct abscissae."""
    xs, coef, slopes = [], [], {}
    for x_i, z_i, *dz in nodes:
        if dz:
            slopes[len(xs) + 1] = dz[0]
            xs.append(x_i)
            coef.append(z_i)
        xs.append(x_i)
        coef.append(z_i)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):  # downwards: coef[i - 1] is still of order k - 1
            if k == 1 and i in slopes:
                coef[i] = slopes[i]
            else:
                coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - k])
    z = coef[-1]
    for i in range(len(xs) - 2, -1, -1):
        z = coef[i] + (x - xs[i]) * z
    return z


def tangent(bordered: np.ndarray) -> np.ndarray:
    """The tangent t of the curve from its bordered matrix: the augmented
    Jacobian [dg/dx | dg/dlam] over the unit row of one coordinate k
    (``powerflow.Curve.jacobian`` with ``unit=k``), so J_aug t = 0 with
    t[k] = 1.  Raises SingularJacobianError when that system is singular."""
    rhs = np.zeros(len(bordered))
    rhs[-1] = 1.0
    try:
        return np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError:
        raise SingularJacobianError("bordered tangent system is singular") from None


@dataclass
class _TracePoint:
    state: pf.PowerFlowState  # its z on ``curve``
    curve: pf.Curve  # the trace's curve of the state's switch set
    status: LimitStatus | None  # None for a fold iterate

    @property
    def lam(self) -> float:
        return float(self.state.z[-1])

    def on(self, curve: pf.Curve) -> np.ndarray:
        """Its z on ``curve``: its own, or packed when it lies on another."""
        return self.state.z if curve is self.curve else curve.pack(self.state, self.lam)


class _Tracer:
    """One continuation run for a fixed variation direction."""

    def __init__(self, case, variation):
        if variation.is_zero():
            raise ZeroDirectionError("variation direction is identically zero")
        self.case = case
        self.variation = variation
        self.direction = case.direction_arrays(variation)
        self.net = case.reduction(self.direction)
        self._curves = {}  # switch set -> its curve (``_curve``)
        self.n_solves = 0
        self.n_newton = 0
        self.points: list[_TracePoint] = []
        self._base_tangent = None  # dz / d lambda at the base point, solved for the first step
        self.crossings = {}  # class -> (lambda, binding label) of each limit crossed

    def _curve(self, q_switched) -> pf.Curve:
        """The trace's curve of a switch set, built at its first use."""
        key = frozenset(q_switched.items())
        curve = self._curves.get(key)
        if curve is None:
            curve = self._curves[key] = pf.Curve(
                self.case, self.direction, q_switched, net=self.net
            )
        return curve

    def _solve(self, curve: pf.Curve, z, node=None, **kwargs) -> pf.PowerFlowState:
        """``powerflow.solve`` from ``z`` on ``curve``, its Newton iterations
        counted, a failed run's included, and a converged solve counted once.
        ``abort_on_rise`` (see ``powerflow.correct``) is set for the steps of
        the march, which retry a failure shorter; limit crossings and the
        fold secant read a failure as "no solution there" and keep the
        budget."""
        try:
            state = pf.solve(curve, z, node, **kwargs)
        except ConvergenceError as exc:
            self.n_newton += exc.iterations
            raise
        self.n_solves += 1
        self.n_newton += state.newton_total
        return state

    @staticmethod
    def _run_on(curve, run):
        """The consecutive points ``run`` but the leading ones off ``curve``,
        the last two kept: switch sets only grow along a trace."""
        while len(run) > 2 and run[0].curve is not curve:
            run = run[1:]
        return run

    def _pin(self):
        """The fold's coordinate eta: the free kept magnitude of the last
        point's switch set that moved most since the point before (the
        first free one at the base point); None when every magnitude is
        held."""
        points = self.points
        last = points[-1]
        dvm = last.state.vm - points[-2].state.vm if len(points) > 1 else -np.ones(self.case.n)
        free = last.curve.idx_q
        return int(free[np.abs(dvm[free]).argmax()]) if free.size else None

    def _predict(self, h):
        """Start, on the last point's curve, of the step that raises lambda
        by h from that point: the polynomial in lambda through the last
        three points on that curve (``_run_on``), with the base tangent
        while the first of them is the base point on that curve; else the
        secant through the last two points, the one before packed on that
        curve, or the tangent at a lone point."""
        last = self.points[-1]
        curve = last.curve
        lam = last.lam + h
        if len(self.points) == 1:
            if self._base_tangent is None:
                self._base_tangent = tangent(
                    curve.jacobian(last.state.vm, last.state.theta, unit=curve.lam_coord)
                )
            return interpolate([(last.lam, last.state.z, self._base_tangent)], lam)
        run = self._run_on(curve, self.points[-3:])
        nodes = [(p.lam, p.on(curve)) for p in run]
        if run[0] is self.points[0] and run[0].curve is curve:
            nodes[0] += (self._base_tangent,)
        return interpolate(nodes, lam)

    @staticmethod
    def _sane(lam, state, ref_vm) -> bool:
        """A converged step is kept only at nonnegative lambda and within
        MAX_VM_STEP of the magnitudes ``ref_vm``; further away it has slid
        onto the lower branch."""
        return lam >= 0.0 and float(np.abs(state.vm - ref_vm).max()) <= MAX_VM_STEP

    # margin bookkeeping -------------------------------------------------------

    def _margins(self, status: LimitStatus):
        return {
            "voltage": min(status.v_lower_margin, status.v_upper_margin),
            "thermal": status.thermal_margin,
        }

    def _binding(self, status: LimitStatus, cls):
        """The report label ("611.c:lower", a branch id) of the element of
        class ``cls`` binding at ``status``, and its side: its margin's field."""
        if cls == "thermal":
            return status.thermal_branch, "thermal_margin"
        side = "lower" if status.v_lower_margin <= status.v_upper_margin else "upper"
        bus, phase = getattr(status, f"v_{side}_node")
        return f"{bus}.{phase}:{side}", f"v_{side}_margin"

    def _accept(self, state, status=None):
        """Append a solved point with its limit status (computed unless
        given), first solving each limit crossed since the previous point."""
        new = _TracePoint(
            state, self._curve(state.q_switched), status or check_limits(self.case, state)
        )
        if self.points:
            prev = self.points[-1]
            for cls in ("voltage", "thermal"):
                if cls not in self.crossings and (
                    self._margins(prev.status)[cls] >= 0 > self._margins(new.status)[cls]
                ):
                    self.crossings[cls] = self._cross(cls, prev, new)
        self.points.append(new)

    # limit crossings ------------------------------------------------------------

    def _cross(self, cls, a: _TracePoint, b: _TracePoint):
        """The point between the last accepted point ``a`` (class margin >=
        0) and ``b`` (< 0) where the margin of class ``cls`` is zero (module
        docstring): returns ``(lambda, binding label)``.  Raises
        ConvergenceError when the held element keeps changing, or when the
        solution lies outside [a.lam, b.lam] or further than MAX_VM_STEP
        from ``a``."""
        point = b
        label, side = self._binding(b.status, cls)
        z = self._crossing_start(side, a, b)
        for _ in range(MAX_REPINS + 1):
            state = self._solve_at_limit(point, z, side)
            status = check_limits(self.case, state)
            # the held element sits on its limit to the crossing tolerance
            if self._margins(status)[cls] >= -CROSSING_TOL:
                break
            z = state.z
            point = _TracePoint(state, self._curve(state.q_switched), status)
            label, side = self._binding(status, cls)
        else:
            raise ConvergenceError(f"{cls} crossing moved on after {MAX_REPINS} re-pins")
        lam = float(state.z[-1])
        if not (min(a.lam, b.lam) <= lam <= max(a.lam, b.lam) and self._sane(lam, state, a.state.vm)):
            raise ConvergenceError(
                f"{cls} crossing solved at lambda {lam:.6g}, off its bracket "
                f"[{a.lam:.6g}, {b.lam:.6g}] or its branch"
            )
        return lam, label

    def _crossing_start(self, side, a: _TracePoint, b: _TracePoint):
        """Where the crossing of ``_cross`` starts on ``b``'s curve: at the
        zero of the margin ``side`` (module docstring) through the points
        before and at ``b`` on that curve (``_run_on``)."""
        curve = b.curve
        run = self._run_on(curve, self.points[-2:] + [b])
        m = [getattr(p.status, side) for p in run]
        if len(m) == 3 and (m[1] - m[0]) * (m[2] - m[1]) > 0.0:  # monotone
            return interpolate([(m_i, p.state.z) for m_i, p in zip(m, run)], 0.0)
        t = m[-2] / (m[-2] - m[-1])
        return (1.0 - t) * a.on(curve) + t * b.state.z

    def _solve_at_limit(self, p: _TracePoint, z, side):
        """Solve from ``z`` to CROSSING_TOL with the element binding the
        margin ``side`` at ``p`` held at its limit (module docstring); a
        branch by its rated row carrying the most current at ``p``.
        Returns the solved state, its z on its switch set."""
        case, status = self.case, p.status
        if side == "thermal_margin":
            k = case.branch_ids.index(status.thermal_branch)
            bounds = np.append(case.rated_starts, case.n_rated_rows)
            start, stop = bounds[k], bounds[k + 1]
            row = start + int(pf.branch_flows(case, p.state).amps[start:stop].argmax())
            limit = case.branch_current[row] * (case.branch_i_base[row] / case.ampacity[k]), 1.0
        else:
            limits = case.model.limits
            lower = side == "v_lower_margin"
            node = status.v_lower_node if lower else status.v_upper_node
            edge = limits.v_min_pu if lower else limits.v_max_pu
            i = case.index[node]
            pin = p.curve.vm_coord(i)
            # pinned, not bordered: the limit row for kept nodes too made a
            # trace 1.05-1.06x slower, its bordered solve 30-40% slower
            if pin is not None:
                z = z.copy()
                z[pin] = edge
                return self._solve(p.curve, z, i, tol=CROSSING_TOL)
            unit = np.zeros(case.n, dtype=complex)  # an eliminated node's voltage
            unit[i] = 1.0
            limit = unit, edge
        bordered = pf.Curve(case, self.direction, p.curve.q_switched, limit, self.net)
        return self._solve(bordered, z, tol=CROSSING_TOL)

    # the fold ---------------------------------------------------------------------

    def _eta_tangent(self, curve: pf.Curve, state, pin_node):
        """The tangent dz / d eta at ``state`` on ``curve``'s equations, eta
        the magnitude at ``pin_node``; its lambda entry is d lambda / d
        eta."""
        return tangent(curve.jacobian(state.vm, state.theta, unit=curve.vm_coord(pin_node)))

    def _fold(self, h):
        """Solve the fold by a secant on s(eta) = d lambda / d eta (module
        docstring) and return it as a point with no limit status, the last
        point itself when that is the fold; ``h`` is the pending natural
        step.  Accepts nothing.  Raises ConvergenceError when no magnitude
        is free, an iterate leaves the branch or MAX_ITER iterates do not
        settle, SingularJacobianError when a slope or iterate meets a
        singular system."""
        pin_node = self._pin()
        if pin_node is None:
            raise ConvergenceError("the fold has no free voltage magnitude to pin")
        curve = self.points[-1].curve
        if len(self.points) == 1:
            z = self._predict(h)
        # each point with its tangent on the curve current when it joined
        pts = [(p, self._eta_tangent(curve, p.state, pin_node)) for p in self.points[-2:]]
        for _ in range(pf.MAX_ITER):
            if len(pts) == 2:
                (a, t_a), (b, t_b) = pts
                eta_a, eta_b = a.state.vm[pin_node], b.state.vm[pin_node]
                if t_a[-1] == t_b[-1]:
                    raise ConvergenceError("fold secant stalled on equal slopes")
                step = t_b[-1] * (eta_b - eta_a) / (t_a[-1] - t_b[-1])  # to the root of s
                if abs(0.5 * t_b[-1] * step) <= pf.TOL * b.lam:
                    break
                if a.curve is curve and b.curve is curve:
                    nodes = [(eta_a, a.state.z, t_a), (eta_b, b.state.z, t_b)]
                else:  # the chord, both ends on the current curve
                    nodes = [(eta_a, a.on(curve)), (eta_b, b.on(curve))]
                z = interpolate(nodes, eta_b + step)
            # judged from its own start: the fold may lie further than
            # MAX_VM_STEP from the last point, but not from the start there
            start_vm = curve.unpack(z)[0]
            state = self._solve(curve, z, pin_node)
            lam = float(state.z[-1])
            if not self._sane(lam, state, start_vm):
                raise ConvergenceError(f"fold iterate at lambda {lam:.6g} left the branch")
            curve = self._curve(state.q_switched)
            t = self._eta_tangent(curve, state, pin_node)
            pts = [pts[-1], (_TracePoint(state, curve, None), t)]
        else:
            raise ConvergenceError(f"fold not located in {pf.MAX_ITER} secant steps")
        return pts[-1][0]

    # main driver --------------------------------------------------------------------

    def run(self) -> AdcResult:
        # the base case is solved on the reduction no direction touches
        base, status = solve_base_case(self.case)
        self._accept(replace(base, z=self._curve(base.q_switched).pack(base, 0.0)), status)
        points = self.points

        h = STEP0
        fold = None  # the fold's point once solved; None on a capped trace
        fold_tried = False

        for _step in range(MAX_POINTS):
            prev = points[-1]
            lam_new = prev.lam + h
            z = self._predict(h)
            z[-1] = lam_new
            try:
                new_state = self._solve(prev.curve, z, abort_on_rise=True)
            except (ConvergenceError, SingularJacobianError):
                new_state = None
            if new_state is None or not self._sane(lam_new, new_state, prev.state.vm):
                h *= 0.5
                if h < STEP_MIN:  # the corrector cannot advance in lambda
                    fold = self._fold(h)
                    break
                if not fold_tried and len(points) >= 2:
                    # the first failure is most often the step past the nose
                    fold_tried = True
                    try:
                        fold = self._fold(h)
                        break
                    except (ConvergenceError, SingularJacobianError):
                        pass  # the march halves on towards the nose
                continue
            self._accept(new_state)

            if lam_new > LAMBDA_CAP:
                break
            if np.abs(new_state.vm - prev.state.vm).max() > lam_new - prev.lam:
                # magnitudes move faster than lambda
                fold = self._fold(h)
                break
            if new_state.iterations <= EASY_ITERS:
                h = min(h * 2.0, STEP_MAX)
        else:
            raise ConvergenceError("continuation exceeded the point budget")

        if fold is None:
            lam_collapse = LAMBDA_CAP
        else:
            lam_collapse = fold.lam
            if fold is not points[-1]:
                self._accept(fold.state)
        unbound = (lam_collapse, None)  # a class never crossed ends at the fold
        lambdas = {c: self.crossings.get(c, unbound)[0] for c in CLASSES}
        scale = self.variation.load_increase_kw / 1000.0
        return AdcResult(
            lambdas=lambdas,
            adc_mw={c: lam * scale for c, lam in lambdas.items()},
            binding_class=min(CLASSES, key=lambdas.get),
            binding_element={c: self.crossings.get(c, unbound)[1] for c in CLASSES},
            capped=fold is None,
            n_solves=self.n_solves,
            n_newton=self.n_newton,
            curve=[
                CurvePoint(
                    p.lam,
                    float(p.state.vm[self.case.monitored].min()),
                    float(1.0 - p.status.thermal_margin),
                )
                for p in points
            ],
        )


def trace_adc(case: pf.NetworkCase, variation, memo: dict | None = None) -> AdcResult:
    """Trace the solution branch for one variation direction and return the
    delivery margins per violation class, with the curve of every accepted
    point (``AdcResult.curve``).

    ``memo`` is a dict owned by one run on one ``case``: the result of each
    direction traced with it is stored under the direction (``dp_kw``,
    ``dq_kvar``, ``load_increase_kw``), and a later call with the same
    direction returns the stored result, curve included, without tracing.
    """
    if memo is None:
        return _Tracer(case, variation).run()
    key = (
        tuple(sorted(variation.dp_kw.items())),
        tuple(sorted(variation.dq_kvar.items())),
        variation.load_increase_kw,
    )
    res = memo.get(key)
    if res is None:
        res = memo[key] = _Tracer(case, variation).run()
    return res
