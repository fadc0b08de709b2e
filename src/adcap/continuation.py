"""Continuation of the lambda-parameterized power-flow curve and extraction
of delivery margins.

The driver marches the solution branch in the load-growth parameter lambda
using a tangent first step and secant predictors afterwards, correcting with
Newton.  Away from the nose the curve is parameterized naturally (lambda
fixed per step); when the secant direction shows voltage magnitudes moving
faster than lambda, the driver pins the fastest-changing magnitude instead
and lets lambda float (local parameterization), which carries the corrector
through the fold.  Step length doubles after three easy corrections and
halves on rejection, with a hard floor.

Limit crossings (voltage band, branch ampacity) are bracketed between
accepted points and refined by an Illinois-type false-position iteration on
the margin; the collapse point is the fold itself, located from a quadratic
fit of lambda against the pinned magnitude near the sign change of
delta-lambda.  Violations that first appear past the fold are ignored: every
margin is evaluated on the upper branch only.

Every setting is a module constant, not an option: the step control,
lambda cap, point budget, crossing refinement and nose sharpening below
(STEP0 ... MAX_VM_STEP), and the Newton tolerance, iteration budget and
magnitude floor that the corrector shares with every power-flow solve
(``powerflow.TOL``, ``MAX_ITER``, ``VM_FLOOR``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    InfeasibleBaseCaseError,
    SingularJacobianError,
    ZeroDirectionError,
)
from . import powerflow as pf

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
REFINE_MARGIN_TOL = 1e-7  # pu / loading fraction
REFINE_MAX_ITER = 40
NOSE_EXTRA_ROUNDS = 2  # step-halving passes around the fold
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
    capped: bool = False
    n_solves: int = 0
    n_newton: int = 0
    curve: list = field(default_factory=list)


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
    mon = ~case.slack_mask
    vm = state.vm[mon]
    nodes = [case.nodes[i] for i in np.flatnonzero(mon)]
    i_lo = int(np.argmin(vm - limits.v_min_pu))
    i_hi = int(np.argmin(limits.v_max_pu - vm))
    flows = pf.branch_flows(case, state)
    i_th = int(np.argmax([f.loading for f in flows]))
    return LimitStatus(
        float(vm[i_lo] - limits.v_min_pu),
        float(limits.v_max_pu - vm[i_hi]),
        float(1.0 - flows[i_th].loading),
        nodes[i_lo],
        nodes[i_hi],
        flows[i_th].branch_id,
    )


def solve_base_case(case: pf.NetworkCase):
    """Solve the base case (lambda = 0) and check every operating limit there.

    Returns ``(state, status)``; raises InfeasibleBaseCaseError naming each
    violated limit.
    """
    state = pf.solve(case)
    status = check_limits(case, state)
    bad = status.violated()
    if bad:
        desc = "; ".join(f"{k} at {el}" for k, el, _ in bad)
        raise InfeasibleBaseCaseError(
            f"base case violates operating limits: {desc}", violations=bad
        )
    return state, status


# -- predictor / corrector over augmented vectors z = [x..., lambda] ----------

def predict_secant(z_prev: np.ndarray, z_curr: np.ndarray, h: float, param_index: int) -> np.ndarray:
    """Advance along the secant so the pinned coordinate moves by exactly h."""
    d = z_curr - z_prev
    if d[param_index] == 0.0:
        raise ZeroDivisionError("secant direction orthogonal to parameter")
    return z_curr + d * (h / d[param_index])


def predict_tangent(jac_aug: np.ndarray, z_curr: np.ndarray, h: float, param_index: int) -> np.ndarray:
    """First-step predictor from the augmented Jacobian [dg/dx | dg/dlam].

    Solves J_aug t = 0 with t[param_index] = 1, then steps z + h t.
    """
    m, n1 = jac_aug.shape
    if n1 != m + 1:
        raise ValueError("augmented jacobian must be m x (m+1)")
    sq = np.vstack([jac_aug, np.zeros((1, n1))])
    sq[m, param_index] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    t = np.linalg.solve(sq, rhs)
    return z_curr + h * t


def correct(residual_fn, jac_aug_fn, z0: np.ndarray, param_index: int) -> tuple[np.ndarray, int]:
    """Newton correction with one coordinate pinned at its predicted value.

    ``residual_fn(z)`` returns the m residuals, ``jac_aug_fn(z)`` the
    m x (m+1) augmented Jacobian; coordinate ``param_index`` is held fixed
    and the remaining m coordinates are solved for, to the power-flow
    tolerance within the power-flow iteration budget.
    """
    z = z0.copy()
    free = np.array([i for i in range(len(z)) if i != param_index])
    for it in range(pf.MAX_ITER + 1):
        g = residual_fn(z)
        norm = float(np.max(np.abs(g))) if g.size else 0.0
        if norm < pf.TOL:
            return z, it
        if it == pf.MAX_ITER:
            raise ConvergenceError(
                f"corrector stalled at residual {norm:.3e}",
                max_mismatch=norm, iterations=it,
            )
        j = jac_aug_fn(z)[:, free]
        try:
            dz = np.linalg.solve(j, -g)
        except np.linalg.LinAlgError:
            raise SingularJacobianError("singular corrector jacobian") from None
        if not np.all(np.isfinite(dz)):
            raise SingularJacobianError("non-finite corrector step")
        z[free] += dz
    raise AssertionError("unreachable")


class _Curve:
    """Closures binding the augmented residual/Jacobian to a switch set."""

    def __init__(self, case, direction, q_switched):
        self.case = case
        self.direction = direction
        self.q_switched = dict(q_switched)
        self.idx_p, self.idx_q = case.partition(q_switched)
        self.n_p = len(self.idx_p)

    def pack(self, state, lam):
        return np.concatenate(
            [state.theta[self.idx_p], state.vm[self.idx_q], [lam]]
        )

    def unpack(self, z):
        vm = self.case.v_set.copy()
        theta = self.case.theta_ref.copy()
        theta[self.idx_p] = z[: self.n_p]
        vm[self.idx_q] = np.maximum(z[self.n_p:-1], pf.VM_FLOOR)
        return vm, theta, float(z[-1])

    def state(self, z, iterations=0, norm=0.0) -> pf.PowerFlowState:
        vm, theta, _ = self.unpack(z)
        return pf.PowerFlowState(
            vm, theta, dict(self.q_switched), {}, iterations, norm
        )

    def residual(self, z):
        vm, theta, lam = self.unpack(z)
        p_spec, q_spec = self.case.spec_injections(lam, self.direction, self.q_switched)
        return pf.mismatch_at(self.case, vm, theta, self.idx_p, self.idx_q, p_spec, q_spec)

    def jac_aug(self, z):
        """[d(mismatch)/dx | d(mismatch)/dlambda]; the last column is the direction."""
        vm, theta, _ = self.unpack(z)
        dp, dq = self.direction
        d_lam = np.concatenate([dp[self.idx_p], dq[self.idx_q]])
        return np.hstack([
            pf.jacobian_at(self.case, vm, theta, self.idx_p, self.idx_q),
            d_lam[:, None],
        ])

    def vm_coord(self, node_index):
        """Position in z of the magnitude at a node index."""
        pos = np.flatnonzero(self.idx_q == node_index)
        if pos.size == 0:
            raise ValueError("node magnitude is not a free coordinate")
        return self.n_p + int(pos[0])


@dataclass
class _TracePoint:
    lam: float
    state: pf.PowerFlowState
    status: LimitStatus


class _Tracer:
    """One continuation run for a fixed variation direction."""

    def __init__(self, case, variation, collect_curve=False):
        if variation.is_zero():
            raise ZeroDirectionError("variation direction is identically zero")
        self.case = case
        self.variation = variation
        self.direction = case.direction_arrays(variation)
        self.collect_curve = collect_curve
        self.n_solves = 0
        self.n_newton = 0
        self.curve: list[CurvePoint] = []
        self.points: list[_TracePoint] = []
        self.lam_cross = {"voltage": None, "thermal": None}
        self.binding = {"voltage": None, "thermal": None, "collapse": None}

    # corrector entry points ---------------------------------------------------

    def _solve_natural(self, lam, warm) -> pf.PowerFlowState:
        state = pf.solve(self.case, lam, self.direction, initial=warm)
        self.n_solves += 1
        self.n_newton += state.newton_total - warm.newton_total
        return state

    def _solve_local(self, curve: _Curve, z_pred, pin_coord):
        """Local-parameterization correction with reactive-limit follow-up;
        returns ``(state, lambda)``."""
        z, iters = correct(curve.residual, curve.jac_aug, z_pred, pin_coord)
        self.n_solves += 1
        self.n_newton += iters
        state = curve.state(z, iters)
        lam = float(z[-1])
        # fresh reactive-limit violations all switch at once, then re-correct
        _, violations = pf.reactive_violations(
            self.case, state.vm, state.theta, lam, self.direction, curve.q_switched
        )
        if violations:
            switched = dict(curve.q_switched)
            switched.update({self.case.nodes[i]: side for _, i, side in violations})
            state2 = pf.PowerFlowState(state.vm, state.theta, switched)
            curve2 = _Curve(self.case, self.direction, switched)
            pin_node = curve.idx_q[pin_coord - curve.n_p]
            z2 = curve2.pack(state2, lam)
            return self._solve_local(curve2, z2, curve2.vm_coord(pin_node))
        return state, lam

    def _natural_warm(self, prev, h, z_prev, z_curr) -> pf.PowerFlowState:
        """Predicted start of the natural step of length h from ``prev``: the
        tangent from the base point, then the secant through the last two
        natural points when both carry the current switch set, else ``prev``
        itself."""
        if len(self.points) == 1:
            curve = _Curve(self.case, self.direction, prev.state.q_switched)
            z0 = curve.pack(prev.state, prev.lam)
            return curve.state(predict_tangent(curve.jac_aug(z0), z0, h, len(z0) - 1))
        if z_prev is None:
            return prev.state.copy()
        curve = _Curve(self.case, self.direction, prev.state.q_switched)
        return curve.state(predict_secant(z_prev, z_curr, h, len(z_curr) - 1))

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
        given), first refining each limit crossed since the previous point,
        and record it on the curve when collecting one."""
        new = _TracePoint(lam, state, status or check_limits(self.case, state))
        if self.points:
            prev = self.points[-1]
            for cls in ("voltage", "thermal"):
                if self.lam_cross[cls] is None and (
                    self._margins(prev.status)[cls] >= 0 > self._margins(new.status)[cls]
                ):
                    lam_star, status_star = self._refine_crossing(cls, prev, new)
                    self.lam_cross[cls] = lam_star
                    self.binding[cls] = self._binding(status_star, cls)
        self.points.append(new)
        if self.collect_curve:
            self.curve.append(
                CurvePoint(
                    lam,
                    float(np.min(state.vm[~self.case.slack_mask])),
                    float(1.0 - new.status.thermal_margin),
                )
            )

    # crossing refinement --------------------------------------------------------

    def _refine_crossing(self, cls, a: _TracePoint, b: _TracePoint):
        """Illinois false position on the class margin over [a.lam, b.lam].

        The margin curve is usually concave in lambda, so plain false position
        stagnates with every iterate on the feasible side and the violated end
        pinned; the Illinois halving of the stuck end's value forces both ends
        in.  The returned point is the sample with the smallest |margin| seen,
        whichever side it fell on.
        """
        fa = self._margins(a.status)[cls]
        fb = self._margins(b.status)[cls]
        la, lb = a.lam, b.lam
        state_a = a.state
        best = (lb, abs(fb), b.status)
        side = 0
        for _ in range(REFINE_MAX_ITER):
            if best[1] < REFINE_MARGIN_TOL or abs(lb - la) < 1e-12:
                break
            lm = (la * fb - lb * fa) / (fb - fa) if fb != fa else 0.5 * (la + lb)
            if not (min(la, lb) < lm < max(la, lb)):
                lm = 0.5 * (la + lb)
            try:
                sm = self._solve_natural(lm, state_a.copy())
            except (ConvergenceError, SingularJacobianError):
                # no solution there: behave like the violated side
                lb, fb = lm, -abs(fa)
                side = 0
                continue
            stm = check_limits(self.case, sm)
            fm = self._margins(stm)[cls]
            if abs(fm) < best[1]:
                best = (lm, abs(fm), stm)
            if fm >= 0:
                la, fa, state_a = lm, fm, sm
                if side > 0:
                    fb *= 0.5
                side = 1
            else:
                lb, fb = lm, fm
                if side < 0:
                    fa *= 0.5
                side = -1
        return best[0], best[2]

    # nose refinement --------------------------------------------------------------

    @staticmethod
    def _fold_fit(pts):
        """Quadratic lambda(eta) through three points; returns fold lambda."""
        (e0, l0), (e1, l1), (e2, l2) = pts
        lmax = max(l0, l1, l2)
        coef = np.polyfit([e0, e1, e2], [l0, l1, l2], 2)
        a, b, c = coef
        if a >= 0:  # not a fold-shaped fit; fall back to the best sample
            return lmax
        lam_star = c - b * b / (4.0 * a)
        # the fit interpolates points straddling the fold, so the vertex must
        # lie nearby; a vertex further than one spread above the best sample
        # means near-collinear data, where extrapolation is meaningless
        lam_star = min(lam_star, lmax + (lmax - min(l0, l1, l2)) + 1e-9)
        return float(max(lam_star, lmax))

    # main driver --------------------------------------------------------------------

    def run(self) -> AdcResult:
        base, status0 = solve_base_case(self.case)
        self.n_solves += 1
        self.n_newton += base.newton_total
        self._accept(0.0, base, status0)
        points = self.points

        h = STEP0
        easy = 0
        mode = "natural"
        pin_node = None
        eta_h = None
        capped = False
        local_pts = []  # (eta, lam, state) along the pinned coordinate
        z_prev = None
        z_curr = None

        for _step in range(MAX_POINTS):
            prev = points[-1]
            if mode == "natural":
                lam_new = prev.lam + h
                try:
                    new_state = self._solve_natural(
                        lam_new, self._natural_warm(prev, h, z_prev, z_curr)
                    )
                except (ConvergenceError, SingularJacobianError):
                    new_state = None
                if new_state is None or not self._sane(lam_new, new_state, prev.state):
                    h *= 0.5
                    easy = 0
                    if h < STEP_MIN:
                        # the corrector cannot advance in lambda: go local
                        mode = "local"
                        h = STEP0
                    continue
                self._accept(lam_new, new_state)

                z_new = _Curve(self.case, self.direction, new_state.q_switched).pack(
                    new_state, lam_new
                )
                if prev.state.q_switched == new_state.q_switched:
                    z_prev, z_curr = z_curr, z_new
                else:
                    z_prev, z_curr = None, z_new

                # mode decision from the latest secant
                dvm = new_state.vm - prev.state.vm
                dlam = lam_new - prev.lam
                if np.max(np.abs(dvm)) > abs(dlam):
                    mode = "local"
                    pin_node = int(np.argmax(np.abs(dvm)))
                    eta_h = -abs(float(dvm[pin_node]))  # magnitudes fall into the nose
                    local_pts = [
                        (float(prev.state.vm[pin_node]), prev.lam, prev.state),
                        (float(new_state.vm[pin_node]), lam_new, new_state),
                    ]
                elif new_state.iterations <= EASY_ITERS:
                    easy += 1
                    if easy >= GROW_AFTER:
                        h = min(h * 2.0, STEP_MAX)
                        easy = 0
                else:
                    easy = 0
            else:
                # ---- local parameterization ----
                if pin_node is None:
                    # entered on corrector failure: pin the magnitude that moved most
                    ref = prev.state
                    prev2 = points[-2].state if len(points) >= 2 else None
                    dvm = ref.vm - prev2.vm if prev2 is not None else -np.ones(self.case.n)
                    mon = ~self.case.slack_mask
                    cand = np.where(mon, np.abs(dvm), -1.0)
                    pin_node = int(np.argmax(cand))
                    eta_h = -max(abs(float(dvm[pin_node])), 0.005)
                    local_pts = [(float(ref.vm[pin_node]), prev.lam, ref)]

                curve_ctx = _Curve(self.case, self.direction, prev.state.q_switched)
                try:
                    pin_coord = curve_ctx.vm_coord(pin_node)
                except ValueError:
                    # pinned magnitude is not free (pv node); fall back to the
                    # largest free magnitude change
                    free = curve_ctx.idx_q
                    dvm = prev.state.vm[free] - points[-2].state.vm[free] if len(points) >= 2 else -np.ones(len(free))
                    pin_node = int(free[np.argmax(np.abs(dvm))])
                    pin_coord = curve_ctx.vm_coord(pin_node)

                z_here = curve_ctx.pack(prev.state, prev.lam)
                zp = None
                if len(local_pts) >= 2:
                    _, lam_prev, st_prev = local_pts[-2]
                    z_last2 = curve_ctx.pack(st_prev, lam_prev)
                    try:
                        zp = predict_secant(z_last2, z_here, eta_h, pin_coord)
                    except ZeroDivisionError:
                        pass
                if zp is None:  # no usable secant: move the pinned magnitude only
                    zp = z_here.copy()
                    zp[pin_coord] += eta_h

                try:
                    new_state, lam_new = self._solve_local(curve_ctx, zp, pin_coord)
                except (ConvergenceError, SingularJacobianError):
                    new_state = None
                if new_state is None or not self._sane(lam_new, new_state, prev.state):
                    eta_h *= 0.5
                    if abs(eta_h) < 1e-6:
                        if len(local_pts) >= 3:
                            lam_collapse = self._fold_fit(
                                [(e, l) for e, l, _ in local_pts[-3:]]
                            )
                            break
                        raise ConvergenceError(
                            "continuation stalled before locating the fold"
                        )
                    continue
                self._accept(lam_new, new_state)
                local_pts.append((float(new_state.vm[pin_node]), lam_new, new_state))

            if lam_new > LAMBDA_CAP:
                capped = True
                lam_collapse = LAMBDA_CAP
                break

            if lam_new < prev.lam:
                # past the fold (local steps only: natural ones raise lambda):
                # sharpen with halved steps, then fit
                for _ in range(NOSE_EXTRA_ROUNDS):
                    e2, l2, s2 = local_pts[-2]  # highest-lambda point so far
                    eh = 0.5 * (local_pts[-1][0] - e2)
                    cu = _Curve(self.case, self.direction, s2.q_switched)
                    try:
                        pc = cu.vm_coord(pin_node)
                        zm = cu.pack(s2, l2)
                        zm[pc] += eh
                        st_r, lam_r = self._solve_local(cu, zm, pc)
                    except (ConvergenceError, SingularJacobianError, ValueError):
                        break
                    if not self._sane(lam_r, st_r, s2):
                        break
                    self._accept(lam_r, st_r)
                    local_pts.append((float(st_r.vm[pin_node]), lam_r, st_r))
                if len(local_pts) >= 3:
                    trio = sorted(local_pts, key=lambda t: t[1])[-3:]
                    trio = sorted(trio, key=lambda t: t[0])
                    lam_collapse = self._fold_fit([(e, l) for e, l, _ in trio])
                else:
                    # straddle pair only (every sharpening solve failed); the
                    # best solved lambda is the defensible estimate
                    lam_collapse = max(l for _, l, _ in local_pts)
                break
        else:
            raise ConvergenceError("continuation exceeded the point budget")

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
            capped=capped,
            n_solves=self.n_solves,
            n_newton=self.n_newton,
            curve=self.curve,
        )


def trace_adc(case: pf.NetworkCase, variation, collect_curve: bool = False) -> AdcResult:
    """Trace the solution branch for one variation direction and return the
    delivery margins per violation class."""
    return _Tracer(case, variation, collect_curve).run()
