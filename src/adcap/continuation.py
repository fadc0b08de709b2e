"""Continuation of the lambda-parameterized power-flow curve and extraction
of delivery margins.

The driver marches in the load-growth parameter lambda: every step is a
power-flow solve at a pinned lambda (``powerflow.solve``) that starts from
the secant through the last two accepted points, or from the tangent while
the march holds one.  A rejected step is retried at half the length, and a
step grows again after three easy corrections.  The march stops at the
first of three signs of the nose: a secant along which some magnitude moves
further than lambda; the first step that fails or is rejected while the
march holds two points, which is most often the step past the nose; or a
step that fails down to the step floor STEP_MIN.  The fold is solved from
there.  Only at the first failed step may that solve fail: the march then
halves on as before, and waits for one of the other two signs.

The collapse point is solved directly.  At the fold lambda is
stationary along the curve, so with eta the free voltage magnitude that
moved most over the last step, the fold is the root of s(eta) = d lambda /
d eta, the lambda entry of the tangent with eta's entry 1 (``tangent``).  A
secant on s starts from the last two points; each iterate is one solve of
the power flow's augmented system (``powerflow.Curve``) with eta pinned and
lambda free, by its one Newton loop (``powerflow.correct``), from the chord
through the two latest points, followed by one tangent solve on the
augmented Jacobian there.  It stops once the quadratic estimate of the
lambda still to gain is at most TOL times lambda.  A march of one point
takes its first iterate where its pending step would have started.

A limit crossing (voltage band, branch ampacity) is bracketed between two
accepted points, the fold included, and solved directly by the same
corrector, from the chord at the margin's linear zero: the element binding
at the violated end is held at its limit and lambda floats.  A voltage
crossing pins that node's magnitude at the band edge; a thermal crossing
pins nothing and adds the equation "loading of the branch's most loaded
rated row = 1" (``Curve``'s ``loading_row``).  If another element of the
class lies further out at the solution, it is held instead (at most
MAX_REPINS times).  A crossing not solved inside its bracket fails the
trace.  Violations that first appear past the fold are ignored: every
margin is evaluated on the upper branch only.

Every trace returns its curve (``AdcResult.curve``): one ``CurvePoint`` per
accepted point in the order accepted, from the base case to the fold (to
the first point past LAMBDA_CAP on a capped trace).
A run's trace memo (``trace_adc``) returns a stored result, curve included,
and never traces a stored direction again.

Every setting is a module constant, not an option: the step control,
lambda cap, point budget and re-pin cap below (STEP0 ... MAX_VM_STEP), and
the Newton tolerance, iteration budget and magnitude floor of the shared
loop (``powerflow.TOL``, ``MAX_ITER``, ``VM_FLOOR``), which also bound the
fold secant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    InfeasibleBaseCaseError,
    SingularJacobianError,
    ZeroDirectionError,
)
from . import powerflow as pf
# fold and crossing solves call the loop as this module's ``correct``; a wrapper set here sees only them
from .powerflow import correct

_CLASSES = ("voltage", "thermal", "collapse")

# Step control: the first lambda step, its bounds, and doubling after
# GROW_AFTER consecutive corrections of at most EASY_ITERS Newton iterations
STEP0 = 0.1
STEP_MAX = 0.5
STEP_MIN = 1e-4
GROW_AFTER = 3
EASY_ITERS = 3
LAMBDA_CAP = 20.0  # a trace passing this lambda stops there, flagged capped
MAX_POINTS = 600  # step attempts per trace, rejected ones included
MAX_REPINS = 3  # times one crossing is solved again with another element held
# largest voltage-magnitude change accepted in one step; a converged
# corrector that moved further has almost certainly slid onto the lower
# branch, so the step is rejected like a corrector failure
MAX_VM_STEP = 0.15


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
    lambdas: dict  # class -> lambda at first violation / fold
    adc_mw: dict  # class -> lambda * positive load-increase direction
    overall_mw: float
    binding_class: str
    binding_element: dict  # class -> element id or None
    curve: list  # one CurvePoint per accepted point, in the order accepted
    capped: bool = False
    n_solves: int = 0  # converged solves, base case included, each once however it switched
    n_newton: int = 0  # every Newton iteration, failed runs included


def binding_label(element):
    """Report label of a binding element: ``"<bus>.<phase>:<side>"`` for a
    voltage node, the branch id for a thermal limit, None when unbound."""
    if element is None or isinstance(element, str):
        return element
    side, (bus, phase) = element
    return f"{bus}.{phase}:{side}"


def check_limits(case: pf.NetworkCase, state: pf.PowerFlowState) -> LimitStatus:
    """Voltage-band and ampacity margins of a solved state.

    Slack phases are excluded from the voltage scan (their magnitude is a
    boundary condition, not a delivered quantity).
    """
    limits = case.model.limits
    vm = state.vm[case.monitored]
    i_lo = int(np.argmin(vm - limits.v_min_pu))
    i_hi = int(np.argmin(limits.v_max_pu - vm))
    loading = pf.branch_flows(case, state).loading
    i_th = int(np.argmax(loading))
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
        state = pf.solve(case)
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

def predict_secant(z_prev: np.ndarray, z_curr: np.ndarray, h: float, param_index: int) -> np.ndarray:
    """Advance along the secant so the pinned coordinate moves by exactly h."""
    d = z_curr - z_prev
    if d[param_index] == 0.0:
        raise ZeroDivisionError("secant direction orthogonal to parameter")
    return z_curr + d * (h / d[param_index])


def tangent(jac_aug: np.ndarray, param_index: int) -> np.ndarray:
    """The tangent t of the curve from the augmented Jacobian
    [dg/dx | dg/dlam]: J_aug t = 0 with t[param_index] = 1.  Raises
    SingularJacobianError when that bordered system is singular."""
    m, n1 = jac_aug.shape
    if n1 != m + 1:
        raise ValueError("augmented jacobian must be m x (m+1)")
    sq = np.vstack([jac_aug, np.zeros((1, n1))])
    sq[m, param_index] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        return np.linalg.solve(sq, rhs)
    except np.linalg.LinAlgError:
        raise SingularJacobianError("bordered tangent system is singular") from None


def predict_tangent(jac_aug: np.ndarray, z_curr: np.ndarray, h: float, param_index: int) -> np.ndarray:
    """First-step predictor: z + h t, t the :func:`tangent` with
    t[param_index] = 1."""
    return z_curr + h * tangent(jac_aug, param_index)


@dataclass
class _TracePoint:
    lam: float
    state: pf.PowerFlowState
    status: LimitStatus


class _Tracer:
    """One continuation run for a fixed variation direction."""

    def __init__(self, case, variation):
        if variation.is_zero():
            raise ZeroDirectionError("variation direction is identically zero")
        self.case = case
        self.variation = variation
        self.direction = case.direction_arrays(variation)
        self.n_solves = 0
        self.n_newton = 0
        self.points: list[_TracePoint] = []
        self.lam_cross = {"voltage": None, "thermal": None}
        self.binding = {"voltage": None, "thermal": None, "collapse": None}

    # corrector entry points ---------------------------------------------------
    # ``abort_on_rise`` (see ``powerflow.correct``) is set for the steps of
    # the march, which retry a failure shorter; limit crossings and the fold
    # secant read a failure as "no solution there" and keep the budget.

    def _solve_natural(self, lam, warm) -> pf.PowerFlowState:
        state = pf.solve(self.case, lam, self.direction, initial=warm, abort_on_rise=True)
        self.n_solves += 1
        self.n_newton += state.newton_total - warm.newton_total
        return state

    def _solve_local(self, curve: pf.Curve, z, pin_node):
        """Correction from ``z`` with lambda free and the magnitude at
        ``pin_node`` pinned (nothing pinned for None, on a curve with a
        loading row), switching reactive limits by the power-flow rule;
        returns ``(state, lambda)``."""
        while True:  # each round switches one more PV phase, so this ends
            pin = None if pin_node is None else curve.vm_coord(pin_node)
            try:
                z, iters, norm = correct(curve.linearize, z, pin)
            except ConvergenceError as exc:
                self.n_newton += exc.iterations
                raise
            self.n_newton += iters
            state, next_curve = curve.settle(z, iters, norm)
            if next_curve is None:
                self.n_solves += 1
                return state, float(z[-1])
            curve = next_curve
            z = curve.pack(state, z[-1])

    def _pin(self):
        """The fold's coordinate eta: the free magnitude of the last point's
        switch set that moved most since the point before (the first free
        one at the base point).  Raises ConvergenceError when every
        magnitude is held."""
        points = self.points
        last = points[-1].state
        dvm = last.vm - points[-2].state.vm if len(points) > 1 else -np.ones(self.case.n)
        free = self.case.partition(last.q_switched)[1]
        if not free.size:
            raise ConvergenceError(
                "the fold has no free voltage magnitude to pin"
            )
        return int(free[np.argmax(np.abs(dvm[free]))])

    def _predict(self, h):
        """Start of the step that raises lambda by h from the last point, in
        that point's switch set: along the secant through the last two
        points, or the tangent while the march holds one.  Returns
        ``(curve, z)``."""
        last = self.points[-1]
        curve = pf.Curve(self.case, self.direction, last.state.q_switched)
        z = curve.pack(last.state, last.lam)
        if len(self.points) >= 2:
            before = self.points[-2]
            return curve, predict_secant(
                curve.pack(before.state, before.lam), z, h, curve.lam_coord
            )
        jac = curve.jacobian(last.state.vm, last.state.theta)
        return curve, predict_tangent(jac, z, h, curve.lam_coord)

    @staticmethod
    def _sane(lam, state, ref) -> bool:
        """A converged step is kept only at nonnegative lambda and within
        MAX_VM_STEP of ``ref``; further away it has slid onto the lower branch."""
        return lam >= 0.0 and float(np.max(np.abs(state.vm - ref.vm))) <= MAX_VM_STEP

    # margin bookkeeping -------------------------------------------------------

    def _margins(self, status: LimitStatus):
        return {
            "voltage": min(status.v_lower_margin, status.v_upper_margin),
            "thermal": status.thermal_margin,
        }

    def _binding(self, status: LimitStatus, cls):
        if cls == "voltage":
            if status.v_lower_margin <= status.v_upper_margin:
                return ("lower", status.v_lower_node)
            return ("upper", status.v_upper_node)
        return status.thermal_branch

    def _accept(self, lam, state, status=None):
        """Append a solved point with its limit status (computed unless
        given), first solving each limit crossed since the previous point."""
        new = _TracePoint(lam, state, status or check_limits(self.case, state))
        if self.points:
            prev = self.points[-1]
            for cls in ("voltage", "thermal"):
                if self.lam_cross[cls] is None and (
                    self._margins(prev.status)[cls] >= 0 > self._margins(new.status)[cls]
                ):
                    self.lam_cross[cls], self.binding[cls] = self._cross(cls, prev, new)
        self.points.append(new)

    # limit crossings ------------------------------------------------------------

    def _cross(self, cls, a: _TracePoint, b: _TracePoint):
        """The point between accepted points ``a`` (class margin >= 0) and
        ``b`` (< 0) where the margin of class ``cls`` is zero (module
        docstring): returns ``(lambda, binding element)``.  Raises
        ConvergenceError when the held element keeps changing, or when the
        solution lies outside [a.lam, b.lam] or further than MAX_VM_STEP
        from ``a``."""
        fa, fb = self._margins(a.status)[cls], self._margins(b.status)[cls]
        t = fa / (fa - fb)
        curve = pf.Curve(self.case, self.direction, b.state.q_switched)
        z = (1.0 - t) * curve.pack(a.state, a.lam) + t * curve.pack(b.state, b.lam)
        state, status = b.state, b.status
        for _ in range(MAX_REPINS + 1):
            element = self._binding(status, cls)
            state, lam = self._solve_at_limit(curve, z, element, state)
            status = check_limits(self.case, state)
            # the held element sits on its limit to the Newton tolerance
            if self._margins(status)[cls] >= -pf.TOL:
                break
            curve = pf.Curve(self.case, self.direction, state.q_switched)
            z = curve.pack(state, lam)
        else:
            raise ConvergenceError(f"{cls} crossing moved on after {MAX_REPINS} re-pins")
        if not (min(a.lam, b.lam) <= lam <= max(a.lam, b.lam) and self._sane(lam, state, a.state)):
            raise ConvergenceError(
                f"{cls} crossing solved at lambda {lam:.6g}, off its bracket "
                f"[{a.lam:.6g}, {b.lam:.6g}] or its branch"
            )
        return lam, element

    def _solve_at_limit(self, curve: pf.Curve, z, element, state):
        """Solve from ``z`` with ``element`` held at its limit: a voltage
        element ``(side, node)`` by pinning the magnitude at its band edge, a
        branch id by the loading equation of the branch's rated row carrying
        the most current in ``state``."""
        case = self.case
        if isinstance(element, str):
            k = case.branch_ids.index(element)
            bounds = np.append(case.rated_starts, case.n_rated_rows)
            start, stop = bounds[k], bounds[k + 1]
            row = start + int(np.argmax(pf.branch_flows(case, state).amps[start:stop]))
            bordered = pf.Curve(case, self.direction, curve.q_switched, loading_row=row)
            return self._solve_local(bordered, z, None)
        side, node = element
        limits = case.model.limits
        i = case.index[node]
        z = z.copy()
        z[curve.vm_coord(i)] = limits.v_min_pu if side == "lower" else limits.v_max_pu
        return self._solve_local(curve, z, i)

    # the fold ---------------------------------------------------------------------

    def _slope(self, curve: pf.Curve, state, pin_node) -> float:
        """d lambda / d eta at ``state`` on ``curve``'s equations, eta the
        magnitude at ``pin_node``."""
        jac = curve.jacobian(state.vm, state.theta)
        return float(tangent(jac, curve.vm_coord(pin_node))[-1])

    def _fold(self, h):
        """Solve the fold by a secant on s(eta) = d lambda / d eta (module
        docstring) and return it as ``(state, lambda)``, the last point's
        when that is the fold; ``h`` is the pending natural step.  Accepts
        nothing.  Raises ConvergenceError when an iterate leaves the branch
        or MAX_ITER iterates do not settle, SingularJacobianError when a
        slope or iterate meets a singular system."""
        pin_node = self._pin()
        curve, z = self._predict(h)
        pts = [(p.state, p.lam, self._slope(curve, p.state, pin_node)) for p in self.points[-2:]]
        for _ in range(pf.MAX_ITER):
            if len(pts) == 2:
                (state_a, lam_a, s_a), (state_b, lam_b, s_b) = pts
                pin = curve.vm_coord(pin_node)
                za, zb = curve.pack(state_a, lam_a), curve.pack(state_b, lam_b)
                if s_a == s_b:
                    raise ConvergenceError("fold secant stalled on equal slopes")
                step = s_b * (zb[pin] - za[pin]) / (s_a - s_b)  # to the root of s
                if abs(0.5 * s_b * step) <= pf.TOL * lam_b:
                    break
                z = predict_secant(za, zb, step, pin)
            state, lam = self._solve_local(curve, z, pin_node)
            if not self._sane(lam, state, pts[-1][0]):
                raise ConvergenceError(f"fold iterate at lambda {lam:.6g} left the branch")
            curve = pf.Curve(self.case, self.direction, state.q_switched)
            pts = [pts[-1], (state, lam, self._slope(curve, state, pin_node))]
        else:
            raise ConvergenceError(f"fold not located in {pf.MAX_ITER} secant steps")
        return pts[-1][:2]

    # main driver --------------------------------------------------------------------

    def run(self) -> AdcResult:
        base, status0 = solve_base_case(self.case)
        self.n_solves += 1
        self.n_newton += base.newton_total
        self._accept(0.0, base, status0)
        points = self.points

        h = STEP0
        easy = 0
        fold = None  # (state, lambda) once solved; None on a capped trace
        fold_tried = False

        for _step in range(MAX_POINTS):
            prev = points[-1]
            lam_new = prev.lam + h
            curve, z = self._predict(h)
            try:
                new_state = self._solve_natural(lam_new, curve.state(z))
            except ConvergenceError as exc:
                self.n_newton += exc.iterations  # summed over its switching rounds
                new_state = None
            except SingularJacobianError:
                new_state = None
            if new_state is None or not self._sane(lam_new, new_state, prev.state):
                h *= 0.5
                easy = 0
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
            self._accept(lam_new, new_state)

            if lam_new > LAMBDA_CAP:
                break
            if np.max(np.abs(new_state.vm - prev.state.vm)) > lam_new - prev.lam:
                # magnitudes move faster than lambda
                fold = self._fold(h)
                break
            if new_state.iterations <= EASY_ITERS:
                easy += 1
                if easy >= GROW_AFTER:
                    h = min(h * 2.0, STEP_MAX)
                    easy = 0
            else:
                easy = 0
        else:
            raise ConvergenceError("continuation exceeded the point budget")

        if fold is None:
            lam_collapse = LAMBDA_CAP
        else:
            state, lam_collapse = fold
            if state is not points[-1].state:
                self._accept(lam_collapse, state)
        lam_cross = self.lam_cross
        lam_v = lam_cross["voltage"] if lam_cross["voltage"] is not None else lam_collapse
        lam_t = lam_cross["thermal"] if lam_cross["thermal"] is not None else lam_collapse
        lambdas = {"voltage": lam_v, "thermal": lam_t, "collapse": lam_collapse}
        scale = self.variation.load_increase_kw / 1000.0
        adc = {k: v * scale for k, v in lambdas.items()}
        overall_cls = min(_CLASSES, key=lambda c: lambdas[c])
        return AdcResult(
            lambdas=lambdas,
            adc_mw=adc,
            overall_mw=adc[overall_cls],
            binding_class=overall_cls,
            binding_element=self.binding,
            capped=fold is None,
            n_solves=self.n_solves,
            n_newton=self.n_newton,
            curve=[
                CurvePoint(
                    p.lam,
                    float(np.min(p.state.vm[self.case.monitored])),
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
