"""Reference computations the tests compare the program against, and
helpers only the tests use.

Each reference is written the plain way, element by element or densely,
from the feeder model and the formulas in ``adcap.powerflow``'s docstring,
or row by row, so that it shares no kernel with the code under test.
"""

import math

import numpy as np

from adcap import chaos, powerflow, stochastic
from adcap.errors import ConfigurationError
from adcap.feeder import branch_admittance_blocks, i_base_a, z_base_ohm


def branch_flows_loop(case, state):
    """Per branch, in model order: ``(branch id, from-side amps per phase,
    to-side amps per phase, loading, from-side complex power in pu, to-side
    complex power in pu)``, one branch at a time from its two-port blocks.
    Transformers are rated on the from side only."""
    v = state.voltage()
    flows = []
    for br in case.model.branches:
        fb, tb = case.model.bus(br.from_bus), case.model.bus(br.to_bus)
        yff, yft, ytf, ytt = branch_admittance_blocks(br, z_base_ohm(fb), z_base_ohm(tb))
        vf = v[[case.index[(br.from_bus, ph)] for ph in br.phases]]
        vt = v[[case.index[(br.to_bus, ph)] for ph in br.phases]]
        i_f = yff @ vf + yft @ vt
        i_t = ytf @ vf + ytt @ vt
        i_from = np.abs(i_f) * i_base_a(fb)
        i_to = np.abs(i_t) * i_base_a(tb)
        worst = i_from.max() if br.kind == "transformer" else max(i_from.max(), i_to.max())
        flows.append((
            br.id, i_from, i_to, worst / br.ampacity_a,
            complex(vf @ np.conj(i_f)), complex(vt @ np.conj(i_t)),
        ))
    return flows


def power_balance(case, state):
    """(total nodal injection, element-wise branch + shunt absorption), pu.

    The two complex totals agree for a converged state; the comparison checks
    nodal injections against independently assembled per-element flows.
    """
    v = state.voltage()
    s_nodal = complex(np.sum(v * np.conj(case.y @ v)))
    s_elem = 0j
    for _, _, _, _, s_from, s_to in branch_flows_loop(case, state):
        s_elem += s_from + s_to
    for bus in case.model.buses:
        for ph, kvar in bus.shunt_kvar.items():
            i = case.index[(bus.id, ph)]
            y_sh = 1j * (kvar / 1000.0)
            s_elem += (state.vm[i] ** 2) * np.conj(y_sh)
    return s_nodal, s_elem


def spec_injections(case, lam, direction, q_switched):
    """Specified injections (p, q) per node at ``lam``: the base injections
    plus lambda times the direction (a pair of per-node arrays, or None),
    then each switched PV phase's reactive limit added to its q."""
    dp, dq = direction if direction is not None else (0.0, 0.0)
    p_spec = case.p0 + lam * dp
    q_spec = case.q0 + lam * dq
    for key, side in q_switched.items():
        i = case.index[key]
        q_spec[i] += case.q_min[i] if side == "min" else case.q_max[i]
    return p_spec, q_spec


def partition(case, q_switched):
    """(P-row, Q-row) node indices of the whole network for a switch set,
    node by node from the feeder model: P rows at every node but the slack
    phases, Q rows at those but the PV phases not in ``q_switched``."""
    kind = {(bus.id, ph): bus.bus_type for bus in case.model.buses for ph in bus.phases}
    idx_p = [i for i, node in enumerate(case.nodes) if kind[node] != "slack"]
    idx_q = [i for i in idx_p if kind[case.nodes[i]] != "pv" or case.nodes[i] in q_switched]
    return np.array(idx_p, dtype=int), np.array(idx_q, dtype=int)


def mismatch_at(s, idx_p, idx_q, p_spec, q_spec):
    """Power mismatch g = S_spec - S at the nodal complex power ``s``: P
    rows over ``idx_p``, then Q rows over ``idx_q``."""
    return np.concatenate([p_spec[idx_p] - s.real[idx_p], q_spec[idx_q] - s.imag[idx_q]])


def mismatch(case, state, lam=0.0, direction=None):
    """Power mismatch g = S_spec(lambda) - S(x) of a state over the unknown
    rows of the whole network."""
    p_spec, q_spec = spec_injections(case, lam, direction, state.q_switched)
    idx_p, idx_q = partition(case, state.q_switched)
    v = state.voltage()
    return mismatch_at(v * np.conj(case.y @ v), idx_p, idx_q, p_spec, q_spec)


def jacobian(case, state):
    """d(mismatch)/dx of a state over the whole network, rows [P; Q],
    columns [theta; vm], from the program's own Jacobian with lambda
    pinned: a direction that touches every node eliminates none."""
    everywhere = (np.ones(case.n), np.zeros(case.n))
    curve = powerflow.Curve(case, everywhere, state.q_switched)
    return curve.jacobian(state.vm, state.theta, curve.lam_coord)


def dense_jacobian(y, vm, theta, rows, cols):
    """d(mismatch)/dx from the docstring's identities over the whole dense
    admittance matrix ``y`` (a case's, or a reduction's over its kept
    nodes),

        dS/dtheta = j diag(V) conj(diag(I) - Y diag(V))
        dS/d|V|   = diag(V/|V|) conj(diag(I)) + diag(V) conj(Y diag(V/|V|)),

    with rows [P over rows[0]; Q over rows[1]] and columns [theta over
    cols[0]; |V| over cols[1]], as positions in ``y``."""
    v = vm * np.exp(1j * theta)
    i_bus = y @ v
    a = -(y * v[None, :])
    a[np.diag_indices(len(v))] += i_bus
    ds_dth = 1j * v[:, None] * np.conj(a)
    vnorm = v / vm
    ds_dvm = v[:, None] * np.conj(y * vnorm[None, :])
    ds_dvm[np.diag_indices(len(v))] += vnorm * np.conj(i_bus)
    (rp, rq), (cp, cq) = rows, cols
    return -np.block([
        [ds_dth.real[np.ix_(rp, cp)], ds_dvm.real[np.ix_(rp, cq)]],
        [ds_dth.imag[np.ix_(rq, cp)], ds_dvm.imag[np.ix_(rq, cq)]],
    ])


def solve_at(case, lam=0.0, direction=None, initial=None, **kwargs):
    """``powerflow.solve`` with lambda pinned at ``lam``, from ``initial``
    (the flat start by default) on the curve of its switch set."""
    origin = case.flat_state() if initial is None else initial
    curve = powerflow.Curve(case, direction, origin.q_switched)
    return powerflow.solve(curve, curve.pack(origin, lam), **kwargs)


def solve_tight(case, lam, direction, tol=1e-12):
    """``solve_at`` at ``lam``, whose Newton loop stops at
    ``powerflow.TOL``, run on to the mismatch max-norm ``tol`` in its last
    switch set."""
    state = solve_at(case, lam, direction)
    curve = powerflow.Curve(case, direction, state.q_switched)
    z, iters, norm = powerflow.correct(
        curve.linearize, curve.pack(state, lam), curve.lam_coord, tol=tol
    )
    return curve.state(z, iters, norm)


def fold_lambda(case, direction, lam_below, eta_tol=1e-7):
    """The collapse lambda as the largest lambda over one voltage magnitude
    eta, by golden section.  Each lambda(eta) is a solve with eta pinned and
    lambda free (``powerflow.correct``), started from the solved point
    nearest in eta and switching reactive limits by ``Curve.settle``.

    ``lam_below`` must lie below the fold.  A natural march warm-started
    through lam_below k / 32, k = 1 ... 31, then (1 - 2^-k) lam_below,
    k = 6 ... 10, follows the switching path and picks eta, the free
    magnitude that moved most over its last step.  Eta is then moved on from
    there in doubling steps until lambda falls, which brackets the maximum,
    and the bracket is narrowed to ``eta_tol``."""
    state = solve_at(case)
    for lam in [lam_below * k / 32 for k in range(1, 32)] + [
        lam_below * (1 - 2.0 ** -k) for k in range(6, 11)
    ]:
        prev, state = state, solve_at(case, lam, direction, initial=state)
    free = partition(case, state.q_switched)[1]
    node = free[np.argmax(np.abs(state.vm - prev.vm)[free])]
    solved = [(state, lam)]

    def lam_at(eta):
        state, lam = min(solved, key=lambda p: abs(p[0].vm[node] - eta))
        switched = state.q_switched
        while switched is not None:  # one more PV phase switched per round
            curve = powerflow.Curve(case, direction, switched)
            z = curve.pack(state, lam)
            pin = curve.vm_coord(node)
            z[pin] = eta
            z, iters, norm = powerflow.correct(curve.linearize, z, pin)
            lam = float(z[-1])
            state, switched = curve.settle(z, iters, norm)
        solved.append((state, lam))
        return lam

    # bracket: eta moves on as over the march's last step while lambda rises
    step = float(prev.vm[node] - state.vm[node])
    etas, lams = [float(state.vm[node])], [lam]
    while len(lams) < 3 or lams[-1] > lams[-2]:
        etas.append(etas[-1] - step)
        lams.append(lam_at(etas[-1]))
        step *= 2.0
    lo, hi = sorted((etas[-1], etas[-3]))
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = lam_at(a), lam_at(b)
    while hi - lo > eta_tol:
        if fa >= fb:  # the maximum lies in [lo, b]
            hi, b, fb = b, a, fa
            a = hi - g * (hi - lo)
            fa = lam_at(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + g * (hi - lo)
            fb = lam_at(b)
    return max(lam for _, lam in solved)


def hermite_1d(k: int, x):
    """He_k(x) by the three-term recurrence He_{k+1} = x He_k - k He_{k-1}."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones_like(x)
    prev, curr = np.ones_like(x), x.copy()
    for j in range(1, k):
        prev, curr = curr, x * curr - j * prev
    return curr


def evaluate(model, xi) -> np.ndarray:
    """Surrogate responses at standard-normal points (m, n), from
    ``chaos.basis_matrix`` over the model's active indices."""
    act = np.flatnonzero(model.active)
    a = chaos.basis_matrix(xi, [model.indices[i] for i in act])
    return a @ model.coeffs[act]


def basis_matrix_columns(xi, indices):
    """The chaos basis at the rows of ``xi``, one column at a time over the
    whole array: He values tabulated per (degree, point, dimension), each
    column the running product of its factors over the dimensions."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    m, n = xi.shape
    p = max((sum(ix) for ix in indices), default=0)
    table = np.ones((p + 1, m, n))
    if p >= 1:
        table[1] = xi
    for k in range(2, p + 1):
        table[k] = xi * table[k - 1] - (k - 1) * table[k - 2]
    a = np.ones((m, len(indices)))
    for col, ix in enumerate(indices):
        for dim, k in enumerate(ix):
            if k:
                a[:, col] *= table[k, :, dim]
    return a


def lars_path(x, y, steps):
    """Plain LARS after Efron et al. (2004), the slow way and written
    independently of ``chaos.lars_select``.

    The direction is the least-squares fit of the residual on the signed
    active columns: moving the fit a fraction t along it scales every active
    correlation by (1 - t).  The step stops at the first t where an inactive
    correlation ties the shrinking active one.  Returns the entry order and,
    per step, (active set, correlations with the residual, the unit
    direction the fit then moves along, None at the last step).
    """
    mu = np.zeros(len(y))
    active = [int(np.argmax(np.abs(x.T @ y)))]
    history = []
    while True:
        r = y - mu
        c = x.T @ r
        if len(active) == steps:
            history.append((list(active), c, None))
            return active, history
        signs = np.sign(c[active])
        xa = x[:, active] * signs
        d = xa @ np.linalg.lstsq(xa, r, rcond=None)[0]
        history.append((list(active), c, d / np.linalg.norm(d)))
        a = x.T @ d
        big_c = np.abs(c[active]).max()
        t_best, j_best = 1.0, None
        for j in sorted(set(range(x.shape[1])) - set(active)):
            for num, den in ((big_c - c[j], big_c - a[j]), (big_c + c[j], big_c + a[j])):
                if den > 0 and 0 < num / den < t_best:
                    t_best, j_best = num / den, j
        mu = mu + t_best * d
        active.append(j_best)


def design_points_loop(dimension, n_rows):
    """The first ``n_rows`` candidates of ``chaos.collocation_design``'s
    ranked pool that add rank, by Gram-Schmidt one kept vector at a time:
    each candidate's basis row is projected off every kept unit vector, the
    kept list twice over, and kept when the remainder is not negligible."""
    indices = chaos.multi_indices(dimension, chaos.ORDER)
    cand = chaos._candidate_points(dimension, chaos.ORDER)
    basis, chosen = [], []
    for i, row in enumerate(chaos.basis_matrix(cand, indices)):
        if len(chosen) == n_rows:
            break
        r = row.copy()
        for q in basis + basis:
            r -= (q @ r) * q
        nrm = np.linalg.norm(r)
        if nrm > chaos._GS_TOL * np.linalg.norm(row):
            basis.append(r / nrm)
            chosen.append(i)
    return cand[chosen]


def variation_per_kind(u, registry):
    """``stochastic.assemble_variation`` written with one list and one loop
    per unit kind: wind at its power factor and solar at unity, each spread
    over its phases, then each stochastic load on its phase, then the
    constant entries."""
    def kind(cls):
        return [unit for unit, _ in registry.units if isinstance(unit, cls)]

    wind, solar = kind(stochastic.WindTurbine), kind(stochastic.SolarUnit)
    loads = kind(stochastic.StochasticLoad)
    u = np.asarray(u, dtype=float)
    n_w, n_s = len(wind), len(solar)
    dp, dq = {}, {}

    def _add(key, p, q):
        dp[key] = dp.get(key, 0.0) + p
        dq[key] = dq.get(key, 0.0) + q

    for unit, v in zip(wind, u[:n_w]):
        p = stochastic.wind_power_kw(float(v), unit)
        q = stochastic.reactive_from_active(p, unit.power_factor)
        share = 1.0 / len(unit.phases)
        for ph in unit.phases:
            _add((unit.bus, ph), p * share, q * share)
    for unit, r in zip(solar, u[n_w:n_w + n_s]):
        p = stochastic.solar_power_kw(float(r), unit)
        share = 1.0 / len(unit.phases)
        for ph in unit.phases:
            _add((unit.bus, ph), p * share, 0.0)
    load_increase = 0.0
    for unit, p in zip(loads, u[n_w + n_s:]):
        p = float(p)
        q = stochastic.reactive_from_active(p, unit.power_factor)
        [phase] = unit.phases
        _add((unit.bus, phase), -p, -q)
        load_increase += max(p, 0.0)
    for key, p in registry.constant_dp_kw.items():
        _add(key, p, 0.0)
        load_increase += max(-p, 0.0)
    for key, q in registry.constant_dq_kvar.items():
        _add(key, 0.0, q)
    return stochastic.VariationVector(dp, dq, load_increase)


def to_document(model) -> dict:
    """Canonical schema dict of a ``FeederModel``; load_feeder(json.dumps(doc))
    round-trips."""
    return {
        "name": model.name,
        "buses": [
            {
                "id": b.id,
                "type": b.bus_type,
                "phases": "".join(b.phases),
                "base_kv_ll": b.base_kv_ll,
                **({"v0_pu": b.v0_pu} if b.v0_pu is not None else {}),
                **({"shunt_kvar": dict(sorted(b.shunt_kvar.items()))}
                   if b.shunt_kvar else {}),
            }
            for b in model.buses
        ],
        "branches": [
            {
                "id": br.id,
                "from": br.from_bus,
                "to": br.to_bus,
                "phases": "".join(br.phases),
                "kind": br.kind,
                "r_ohm": br.z_ohm.real.tolist(),
                "x_ohm": br.z_ohm.imag.tolist(),
                "b_shunt_s": br.y_shunt_s.imag.tolist(),
                "ampacity_a": br.ampacity_a,
                **({"tap": dict(sorted(br.tap.items()))} if br.tap else {}),
                **({"connection": br.connection}
                   if br.kind == "transformer" else {}),
            }
            for br in model.branches
        ],
        "loads": [
            {"bus": l.bus, "phase": l.phase, "p_kw": l.p_kw, "q_kvar": l.q_kvar}
            for l in model.loads
        ],
        "generators": [
            {
                "id": g.id,
                "bus": g.bus,
                "phases": "".join(g.phases),
                "type": g.gen_type,
                "p_kw": g.p_kw,
                "q_kvar": g.q_kvar,
                **({"v0_pu": g.v0_pu} if g.v0_pu is not None else {}),
                "q_min_kvar": g.q_min_kvar,
                "q_max_kvar": g.q_max_kvar,
                "delta_p_kw": g.delta_p_kw,
                "delta_q_kvar": g.delta_q_kvar,
            }
            for g in model.generators
        ],
        "limits": {
            "v_min_pu": model.limits.v_min_pu,
            "v_max_pu": model.limits.v_max_pu,
        },
    }


def pce_model_from_dict(doc: dict) -> chaos.PceModel:
    """Inverse of ``PceModel.to_dict``."""
    indices = chaos.multi_indices(doc["dimension"], doc["order"])
    coeffs = np.zeros(len(indices))
    active = np.zeros(len(indices), dtype=bool)
    pos = {ix: i for i, ix in enumerate(indices)}
    for key, c in doc["terms"].items():
        ix = tuple(int(t) for t in key.split(","))
        coeffs[pos[ix]] = c
        active[pos[ix]] = True
    return chaos.PceModel(indices, coeffs, active, doc.get("diagnostics", {}))


def surrogate_statistics(model, m_s: int, seed):
    """Sample the surrogate at M_S standard-normal points drawn from
    ``seed``, clipped at zero, with the analytic mean (c_0) and variance
    (sum of c^2 times basis norms) alongside as cross-checks on the sampled
    values."""
    if m_s < 1:
        raise ConfigurationError("M_S must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    xi = rng.standard_normal((m_s, len(model.indices[0])))
    return chaos.surrogate_stats_at(model, evaluate(model, xi))


def write_cdf_rows(path, samples):
    """A CDF file written one row at a time: the sorted samples against
    their cumulative probability i/M."""
    s = np.sort(samples)
    m = len(s)
    with open(path, "w", newline="") as fh:
        fh.write("adc_mw,cumulative_probability\n")
        for i, x in enumerate(s):
            fh.write(f"{x:.10g},{(i + 1) / m:.6g}\n")
