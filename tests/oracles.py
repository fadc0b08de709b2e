"""Reference computations the tests compare the program against, and
helpers only the tests use.

Each reference is written the plain way, element by element or densely,
from the feeder model and the formulas in ``adcap.powerflow``'s docstring,
or row by row, so that it shares no kernel with the code under test.
"""

import json

import numpy as np

from adcap import chaos, powerflow
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


def mismatch(case, state, lam=0.0, direction=None):
    """Power mismatch g = S_spec(lambda) - S(x) of a state over the unknown
    rows, from the program's own residual."""
    p_spec, q_spec = case.spec_injections(lam, direction, state.q_switched)
    idx_p, idx_q = case.partition(state.q_switched)
    v = state.voltage()
    return powerflow.mismatch_at(v * np.conj(case.y @ v), idx_p, idx_q, p_spec, q_spec)


def jacobian(case, state):
    """d(mismatch)/dx of a state, rows [P; Q], columns [theta; vm], from the
    program's own Jacobian with lambda pinned."""
    curve = powerflow.Curve(case, None, state.q_switched)
    return curve.jacobian(state.vm, state.theta, curve.lam_coord)


def dense_jacobian(case, vm, theta, rows, cols):
    """d(mismatch)/dx from the docstring's identities over the whole dense Y,

        dS/dtheta = j diag(V) conj(diag(I) - Y diag(V))
        dS/d|V|   = diag(V/|V|) conj(diag(I)) + diag(V) conj(Y diag(V/|V|)),

    with rows [P over rows[0]; Q over rows[1]] and columns [theta over
    cols[0]; |V| over cols[1]]."""
    v = vm * np.exp(1j * theta)
    i_bus = case.y @ v
    a = -(case.y * v[None, :])
    a[np.diag_indices(case.n)] += i_bus
    ds_dth = 1j * v[:, None] * np.conj(a)
    vnorm = v / vm
    ds_dvm = v[:, None] * np.conj(case.y * vnorm[None, :])
    ds_dvm[np.diag_indices(case.n)] += vnorm * np.conj(i_bus)
    (rp, rq), (cp, cq) = rows, cols
    return -np.block([
        [ds_dth.real[np.ix_(rp, cp)], ds_dvm.real[np.ix_(rp, cq)]],
        [ds_dth.imag[np.ix_(rq, cp)], ds_dvm.imag[np.ix_(rq, cq)]],
    ])


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


def pce_model_from_json(text: str) -> chaos.PceModel:
    """Inverse of ``PceModel.to_json``."""
    doc = json.loads(text)
    config = chaos.PceConfig(doc["dimension"], doc["order"])
    indices = chaos.multi_indices(config.dimension, config.order)
    coeffs = np.zeros(len(indices))
    active = np.zeros(len(indices), dtype=bool)
    pos = {ix: i for i, ix in enumerate(indices)}
    for key, c in doc["terms"].items():
        ix = tuple(int(t) for t in key.split(","))
        coeffs[pos[ix]] = c
        active[pos[ix]] = True
    return chaos.PceModel(config, indices, coeffs, active, doc.get("diagnostics", {}))


def surrogate_statistics(model, m_s: int, seed, clip_at_zero: bool = False):
    """Sample the surrogate at M_S standard-normal points drawn from
    ``seed``, with the analytic mean (c_0) and variance (sum of c^2 times
    basis norms) alongside as cross-checks on the sampled values."""
    if m_s < 1:
        raise ConfigurationError("M_S must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    xi = rng.standard_normal((m_s, model.config.dimension))
    active = [ix for ix, act in zip(model.indices, model.active) if act]
    return chaos.surrogate_stats_at(model, chaos.basis_matrix(xi, active), clip_at_zero)


def write_cdf_rows(path, samples):
    """A CDF file written one row at a time: the sorted samples against
    their cumulative probability i/M."""
    s = np.sort(samples)
    m = len(s)
    with open(path, "w", newline="") as fh:
        fh.write("adc_mw,cumulative_probability\n")
        for i, x in enumerate(s):
            fh.write(f"{x:.10g},{(i + 1) / m:.6g}\n")
