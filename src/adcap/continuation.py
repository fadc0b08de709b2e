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


@dataclass(frozen=True)
class ContinuationOptions:
    step0: float = 0.1  # initial lambda step
    step_max: float = 0.5
    step_min: float = 1e-4
    grow_after: int = 3  # consecutive easy corrections before doubling
    easy_iters: int = 3  # newton iterations counted as "easy"
    lambda_cap: float = 20.0
    max_points: int = 600
    refine_margin_tol: float = 1e-7  # pu / loading fraction
    refine_max_iter: int = 40
    nose_extra_rounds: int = 2  # step-halving passes around the fold
    # largest voltage-magnitude change accepted in one step; a converged
    # corrector that moved further has almost certainly slid onto the lower
    # branch, so the step is rejected like a corrector failure
    max_vm_step: float = 0.15


@dataclass
class CurvePoint:
    lam: float
    min_vm: float
    max_loading: float
    pinned_vm: float | None = None


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
    delivered_kw_per_lambda: float
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


def check_limits(case: pf.NetworkCase, state: pf.PowerFlowState, limits=None) -> LimitStatus:
    """Voltage-band and ampacity margins of a solved state.

    Slack phases are excluded from the voltage scan (their magnitude is a
    boundary condition, not a delivered quantity).
    """
    limits = limits or case.model.limits
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


def solve_base_case(case: pf.NetworkCase, solve_options=None, limits=None):
    """Solve the base case (lambda = 0) and check every operating limit there.

    Returns ``(state, status)``; raises InfeasibleBaseCaseError naming each
    violated limit.
    """
    state = pf.solve(case, 0.0, None, solve_options)
    status = check_limits(case, state, limits)
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


def correct(residual_fn, jac_aug_fn, z0: np.ndarray, param_index: int,
            tol: float = 1e-8, max_iter: int = 15) -> tuple[np.ndarray, int]:
    """Newton correction with one coordinate pinned at its predicted value.

    ``residual_fn(z)`` returns the m residuals, ``jac_aug_fn(z)`` the
    m x (m+1) augmented Jacobian; coordinate ``param_index`` is held fixed
    and the remaining m coordinates are solved for.
    """
    z = z0.copy()
    free = np.array([i for i in range(len(z)) if i != param_index])
    for it in range(max_iter + 1):
        g = residual_fn(z)
        norm = float(np.max(np.abs(g))) if g.size else 0.0
        if norm < tol:
            return z, it
        if it == max_iter:
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

    def __init__(self, case, direction, q_switched, solve_opts):
        self.case = case
        self.direction = direction
        self.q_switched = dict(q_switched)
        self.idx_p, self.idx_q = case.partition(q_switched)
        self.n_p = len(self.idx_p)
        self.n_q = len(self.idx_q)
        self.tol = solve_opts.tol
        self.vm_floor = solve_opts.vm_floor

    def pack(self, state, lam):
        return np.concatenate(
            [state.theta[self.idx_p], state.vm[self.idx_q], [lam]]
        )

    def unpack(self, z):
        vm = self.case.v_set.copy()
        theta = self.case.theta_ref.copy()
        theta[self.idx_p] = z[: self.n_p]
        vm[self.idx_q] = np.maximum(z[self.n_p:-1], self.vm_floor)
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

    def __init__(self, case, variation, options, solve_options, limits=None, collect_curve=False):
        if variation.is_zero():
            raise ZeroDirectionError("variation direction is identically zero")
        self.case = case
        self.variation = variation
        self.direction = case.direction_arrays(variation)
        self.opts = options
        self.sopts = solve_options
        self.limits = limits or case.model.limits
        self.collect_curve = collect_curve
        self.n_solves = 0
        self.n_newton = 0
        self.curve: list[CurvePoint] = []

    # corrector entry points ---------------------------------------------------

    def _solve_natural(self, lam, warm) -> pf.PowerFlowState:
        state = pf.solve(
            self.case, lam, self.direction, self.sopts,
            initial=warm,
        )
        self.n_solves += 1
        self.n_newton += state.newton_total - (warm.newton_total if warm else 0)
        return state

    def _solve_local(self, curve: _Curve, z_pred, pin_coord):
        """Local-parameterization correction with reactive-limit follow-up."""
        z, iters = correct(
            curve.residual, curve.jac_aug, z_pred, pin_coord,
            tol=self.sopts.tol, max_iter=self.sopts.max_iter,
        )
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
            curve2 = _Curve(self.case, self.direction, switched, self.sopts)
            pin_node = curve.idx_q[pin_coord - curve.n_p]
            z2 = curve2.pack(state2, lam)
            return self._solve_local(curve2, z2, curve2.vm_coord(pin_node))
        return z, state, lam, curve

    # margin bookkeeping -------------------------------------------------------

    def _status(self, state) -> LimitStatus:
        return check_limits(self.case, state, self.limits)

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

    def _record(self, lam, state, status, pinned_vm=None):
        if self.collect_curve:
            self.curve.append(
                CurvePoint(
                    lam,
                    float(np.min(state.vm[~self.case.slack_mask])),
                    float(1.0 - status.thermal_margin),
                    pinned_vm,
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
        for _ in range(self.opts.refine_max_iter):
            if best[1] < self.opts.refine_margin_tol or abs(lb - la) < 1e-12:
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
            stm = self._status(sm)
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
        opts = self.opts
        base, status0 = solve_base_case(self.case, self.sopts, self.limits)
        self.n_solves += 1
        self.n_newton += base.newton_total

        lam_cross = {"voltage": None, "thermal": None}
        binding = {"voltage": None, "thermal": None, "collapse": None}
        points = [_TracePoint(0.0, base, status0)]
        self._record(0.0, base, status0)

        h = opts.step0
        easy = 0
        mode = "natural"
        pin_node = None
        eta_h = None
        lam_collapse = None
        capped = False
        local_pts = []  # (eta, lam, state) along the pinned coordinate
        curve_ctx = None
        z_prev = None
        z_curr = None

        def margins_of(p):
            return self._margins(p.status)

        def handle_crossings(prev_pt, new_pt):
            for cls in ("voltage", "thermal"):
                if lam_cross[cls] is not None:
                    continue
                m0 = margins_of(prev_pt)[cls]
                m1 = margins_of(new_pt)[cls]
                if m0 >= 0 > m1:
                    lam_star, status_star = self._refine_crossing(cls, prev_pt, new_pt)
                    lam_cross[cls] = lam_star
                    binding[cls] = self._binding(status_star, cls)

        for _step in range(opts.max_points):
            prev = points[-1]
            if mode == "natural":
                lam_try = prev.lam + h
                try:
                    if len(points) == 1:
                        # tangent first step
                        curve0 = _Curve(self.case, self.direction, prev.state.q_switched, self.sopts)
                        z0 = curve0.pack(prev.state, prev.lam)
                        zp = predict_tangent(curve0.jac_aug(z0), z0, h, len(z0) - 1)
                        warm = curve0.state(zp)
                        warm.q_switched = dict(prev.state.q_switched)
                    else:
                        warm = prev.state.copy()
                        if z_prev is not None and z_curr is not None and len(z_prev) == len(z_curr):
                            try:
                                zp = predict_secant(z_prev, z_curr, h, len(z_curr) - 1)
                                cc = _Curve(self.case, self.direction, prev.state.q_switched, self.sopts)
                                if len(zp) == cc.n_p + cc.n_q + 1:
                                    warm = cc.state(zp)
                                    warm.q_switched = dict(prev.state.q_switched)
                            except ZeroDivisionError:
                                pass
                    new_state = self._solve_natural(lam_try, warm)
                except (ConvergenceError, SingularJacobianError):
                    h *= 0.5
                    easy = 0
                    if h < opts.step_min:
                        # the corrector cannot advance in lambda: go local
                        mode = "local"
                        h = opts.step0
                        continue
                    continue

                if float(np.max(np.abs(new_state.vm - prev.state.vm))) > opts.max_vm_step:
                    # converged, but onto a distant (lower-branch) solution
                    h *= 0.5
                    easy = 0
                    if h < opts.step_min:
                        mode = "local"
                        h = opts.step0
                    continue

                new_pt = _TracePoint(lam_try, new_state, self._status(new_state))
                handle_crossings(prev, new_pt)
                points.append(new_pt)
                self._record(lam_try, new_state, new_pt.status)

                cc = _Curve(self.case, self.direction, new_state.q_switched, self.sopts)
                z_new = cc.pack(new_state, lam_try)
                if len(points) >= 2 and prev.state.q_switched == new_state.q_switched:
                    z_prev, z_curr = z_curr, z_new
                else:
                    z_prev, z_curr = None, z_new

                # mode decision from the latest secant
                dvm = new_state.vm - prev.state.vm
                dlam = lam_try - prev.lam
                if np.max(np.abs(dvm)) > abs(dlam):
                    mode = "local"
                    pin_node = int(np.argmax(np.abs(dvm)))
                    eta_h = -abs(float(dvm[pin_node]))  # magnitudes fall into the nose
                    local_pts = [
                        (float(prev.state.vm[pin_node]), prev.lam, prev.state),
                        (float(new_state.vm[pin_node]), lam_try, new_state),
                    ]
                else:
                    if new_state.iterations <= opts.easy_iters:
                        easy += 1
                        if easy >= opts.grow_after:
                            h = min(h * 2.0, opts.step_max)
                            easy = 0
                    else:
                        easy = 0
                if lam_try > opts.lambda_cap:
                    capped = True
                    lam_collapse = opts.lambda_cap
                    break
                continue

            # ---- local parameterization ----
            if pin_node is None:
                # entered on corrector failure: pin the magnitude that moved most
                ref = points[-1].state
                prev2 = points[-2].state if len(points) >= 2 else None
                dvm = ref.vm - prev2.vm if prev2 is not None else -np.ones(self.case.n)
                mon = ~self.case.slack_mask
                cand = np.where(mon, np.abs(dvm), -1.0)
                pin_node = int(np.argmax(cand))
                eta_h = -max(abs(float(dvm[pin_node])), 0.005)
                local_pts = [(float(ref.vm[pin_node]), points[-1].lam, ref)]

            prev = points[-1]
            curve_ctx = _Curve(self.case, self.direction, prev.state.q_switched, self.sopts)
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
            if len(local_pts) >= 2:
                eta_prev, lam_prev, st_prev = local_pts[-2]
                z_last2 = curve_ctx.pack(st_prev, lam_prev)
                try:
                    zp = predict_secant(z_last2, z_here, eta_h, pin_coord)
                except ZeroDivisionError:
                    zp = z_here.copy()
                    zp[pin_coord] += eta_h
            else:
                zp = z_here.copy()
                zp[pin_coord] += eta_h

            sane = True
            try:
                z_new, new_state, lam_new, curve_used = self._solve_local(
                    curve_ctx, zp, pin_coord
                )
                sane = lam_new >= 0.0 and float(
                    np.max(np.abs(new_state.vm - prev.state.vm))
                ) <= opts.max_vm_step
            except (ConvergenceError, SingularJacobianError):
                sane = False
            if not sane:
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

            new_pt = _TracePoint(lam_new, new_state, self._status(new_state))
            handle_crossings(prev, new_pt)
            points.append(new_pt)
            eta_new = float(new_state.vm[pin_node])
            self._record(lam_new, new_state, new_pt.status, pinned_vm=eta_new)
            local_pts.append((eta_new, lam_new, new_state))

            if lam_new > opts.lambda_cap:
                capped = True
                lam_collapse = opts.lambda_cap
                break

            if lam_new < prev.lam:
                # past the fold: sharpen with halved steps, then fit
                for _ in range(opts.nose_extra_rounds):
                    if len(local_pts) < 2:
                        break
                    e2, l2, s2 = local_pts[-2]  # highest-lambda point so far
                    eh = 0.5 * (local_pts[-1][0] - e2)
                    cu = _Curve(self.case, self.direction, s2.q_switched, self.sopts)
                    try:
                        pc = cu.vm_coord(pin_node)
                        zm = cu.pack(s2, l2)
                        zm[pc] += eh
                        z_r, st_r, lam_r, _ = self._solve_local(cu, zm, pc)
                    except (ConvergenceError, SingularJacobianError, ValueError):
                        break
                    if lam_r < 0.0 or float(
                        np.max(np.abs(st_r.vm - s2.vm))
                    ) > opts.max_vm_step:
                        break
                    pt_r = _TracePoint(lam_r, st_r, self._status(st_r))
                    handle_crossings(points[-1], pt_r)
                    points.append(pt_r)
                    self._record(lam_r, st_r, pt_r.status, pinned_vm=float(st_r.vm[pin_node]))
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

        if lam_collapse is None:
            # loop broke only via cap
            capped = True
            lam_collapse = opts.lambda_cap

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
            binding_element=binding,
            delivered_kw_per_lambda=self.variation.load_increase_kw,
            capped=capped,
            n_solves=self.n_solves,
            n_newton=self.n_newton,
            curve=self.curve,
        )


def trace_adc(
    case: pf.NetworkCase,
    variation,
    options: ContinuationOptions | None = None,
    solve_options: pf.SolveOptions | None = None,
    limits=None,
    collect_curve: bool = False,
) -> AdcResult:
    """Trace the solution branch for one variation direction and return the
    delivery margins per violation class."""
    tracer = _Tracer(
        case,
        variation,
        options or ContinuationOptions(),
        solve_options or pf.SolveOptions(),
        limits,
        collect_curve,
    )
    return tracer.run()
