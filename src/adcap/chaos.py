"""Hermite polynomial chaos over standard-normal germs: basis construction,
density-ranked collocation designs, full least-squares and sparse (least
angle regression) coefficient estimation, and surrogate statistics.

Probabilists' Hermite polynomials He_k are used throughout (He_2 = x^2 - 1),
so E[He_a He_b] = delta_ab * a! under the standard normal weight.  Basis
functions are products of per-dimension He factors indexed by multi-indices
of total degree <= p, enumerated constant first, then degree blocks in
combinations-with-replacement order.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DesignRankError
from .stochastic import RandomInputVector

_GS_TOL = 1e-9
BASIS_BLOCK_ROWS = 1024  # points per block of basis_matrix


@dataclass(frozen=True)
class PceConfig:
    dimension: int
    order: int = 2

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigurationError("dimension must be >= 1")
        if not (1 <= self.order <= 3):
            raise ConfigurationError("expansion order must be 1, 2 or 3")


def basis_size(n: int, p: int) -> int:
    """Number of multi-indices with total degree <= p in n dimensions."""
    return math.comb(n + p, p)


def multi_indices(n: int, p: int) -> list[tuple]:
    """Graded enumeration: degree 0, then each degree block in
    combinations-with-replacement order over dimensions."""
    out = [(0,) * n]
    for d in range(1, p + 1):
        for combo in itertools.combinations_with_replacement(range(n), d):
            idx = [0] * n
            for i in combo:
                idx[i] += 1
            out.append(tuple(idx))
    return out


def hermite_1d(k: int, x):
    """He_k(x) by the three-term recurrence He_{k+1} = x He_k - k He_{k-1}."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones_like(x)
    prev, curr = np.ones_like(x), x.copy()
    for j in range(1, k):
        prev, curr = curr, x * curr - j * prev
    return curr


def basis_norm_sq(index: tuple) -> float:
    """E[H_index^2] = product of factorials of the entries."""
    out = 1.0
    for k in index:
        out *= math.factorial(k)
    return out


def basis_matrix(xi, indices) -> np.ndarray:
    """Rows = points, columns = basis functions, filled BASIS_BLOCK_ROWS
    points at a time: per block, the He values are tabulated with the
    dimension leading and each basis function is the product of its
    factors, left to right over the dimensions, on contiguous rows."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    m, n = xi.shape
    p = max((sum(ix) for ix in indices), default=0)
    factors = [[(k, dim) for dim, k in enumerate(ix) if k] for ix in indices]
    out = np.empty((m, len(indices)))
    for r0 in range(0, m, BASIS_BLOCK_ROWS):
        x = xi[r0:r0 + BASIS_BLOCK_ROWS].T  # (dimension, points)
        table = np.ones((p + 1,) + x.shape)
        if p >= 1:
            table[1] = x
        for k in range(2, p + 1):
            table[k] = x * table[k - 1] - (k - 1) * table[k - 2]
        block = np.ones((len(indices), x.shape[1]))  # (basis function, points)
        for col, fs in enumerate(factors):
            for f in fs:
                block[col] *= table[f]
        out[r0:r0 + x.shape[1]] = block.T
    return out


def quantile_transform(xi, distributions) -> RandomInputVector:
    """Map one standard-normal point to physical inputs via each marginal's
    inverse-CDF composition (exact affine for normal marginals), clamping
    negative physical values at zero."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (len(distributions),):
        raise ConfigurationError(
            f"point has {xi.shape} entries for {len(distributions)} marginals"
        )
    vals = np.array(
        [float(d.from_standard_normal(x)) for d, x in zip(distributions, xi)]
    )
    vals = np.maximum(vals, 0.0)
    kinds = [d.kind for d in distributions]
    n_w = kinds.count("wind_speed")
    n_s = kinds.count("solar_radiation")
    return RandomInputVector(vals[:n_w], vals[n_w:n_w + n_s], vals[n_w + n_s:])


# -- collocation design --------------------------------------------------------

@dataclass
class CollocationDesign:
    config: PceConfig
    points: np.ndarray  # (rows, n) standard-normal coordinates
    matrix: np.ndarray  # (rows, K) basis values
    indices: list  # K multi-indices

    @property
    def rows(self) -> int:
        return self.points.shape[0]


def coordinate_values(p: int) -> np.ndarray:
    """Per-dimension candidate coordinates: {0} union roots of He_{p+1}."""
    roots = np.polynomial.hermite_e.hermegauss(p + 1)[0]
    vals = [0.0] + [float(r) for r in roots if abs(r) > 1e-9]
    return np.array(sorted(vals))


def _candidate_points(n: int, p: int):
    """Tensor points with at most p nonzero coordinates, ranked by joint
    standard-normal density descending (ties: lexicographic)."""
    nonzero = [v for v in coordinate_values(p) if v != 0.0]
    pts = []
    for k in range(0, p + 1):
        for dims in itertools.combinations(range(n), k):
            for assign in itertools.product(nonzero, repeat=k):
                pt = np.zeros(n)
                pt[list(dims)] = assign
                pts.append(pt)
    pts.sort(key=lambda q: (round(float(q @ q), 10), tuple(q)))
    return np.array(pts)


def collocation_design(config: PceConfig, n_rows: int | None = None) -> CollocationDesign:
    """Select design points from the ranked candidate pool.

    The K highest-ranked points that keep the basis matrix at full column
    rank are always included (rank-deficient picks are replaced by the next
    candidates); remaining slots up to ``n_rows`` are filled back in rank
    order.  Default row count is 1.5 K, capped at the pool size.
    """
    n, p = config.dimension, config.order
    indices = multi_indices(n, p)
    k_full = len(indices)
    cand = _candidate_points(n, p)
    if n_rows is None:
        n_rows = min(math.ceil(1.5 * k_full), len(cand))
    if n_rows < 1:
        raise ConfigurationError("n_rows must be >= 1")
    if n_rows > len(cand):
        raise DesignRankError(
            f"requested {n_rows} rows but only {len(cand)} candidates exist; "
            "increase the order to enlarge the pool"
        )

    a_cand = basis_matrix(cand, indices)
    if n_rows < k_full:
        chosen = list(range(n_rows))
    else:
        # pass 1: greedy rank-increasing picks until full column rank
        basis: list[np.ndarray] = []
        core = []
        for i in range(len(cand)):
            if len(core) == k_full:
                break
            row = a_cand[i]
            r = row.copy()
            for q in basis:
                r -= (q @ r) * q
            for q in basis:  # second pass for numerical safety
                r -= (q @ r) * q
            nrm = np.linalg.norm(r)
            if nrm > _GS_TOL * np.linalg.norm(row):
                basis.append(r / nrm)
                core.append(i)
        if len(core) < k_full:
            raise DesignRankError(
                "candidate pool cannot reach full column rank; "
                "increase the order to enlarge the pool"
            )
        # pass 2: fill remaining slots with the best-ranked leftovers
        core_set = set(core)
        extra = [i for i in range(len(cand)) if i not in core_set]
        chosen = sorted(core + extra[: n_rows - k_full])

    pts = cand[chosen]
    a = a_cand[chosen]
    if n_rows >= k_full and np.linalg.matrix_rank(a) < k_full:
        raise DesignRankError("selected design lost full column rank")
    return CollocationDesign(config, pts, a, indices)


# -- models and fitting ----------------------------------------------------------

@dataclass
class PceModel:
    config: PceConfig
    indices: list
    coeffs: np.ndarray
    active: np.ndarray  # boolean mask over indices
    diagnostics: dict = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return float(self.coeffs[0])

    @property
    def variance(self) -> float:
        out = 0.0
        for ix, c in zip(self.indices[1:], self.coeffs[1:]):
            out += c * c * basis_norm_sq(ix)
        return float(out)

    def to_json(self) -> str:
        return json.dumps(
            {
                "dimension": self.config.dimension,
                "order": self.config.order,
                "terms": {
                    ",".join(map(str, ix)): c
                    for ix, c, act in zip(self.indices, self.coeffs, self.active)
                    if act
                },
                "diagnostics": self.diagnostics,
            },
            sort_keys=True,
        )


def fit_full(design: CollocationDesign, y) -> PceModel:
    """Least squares over the whole basis (the normal-equations solution,
    computed by orthogonal factorization for stability)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (design.rows,):
        raise ConfigurationError("response length does not match design rows")
    k = len(design.indices)
    coeffs, _, rank, sv = np.linalg.lstsq(design.matrix, y, rcond=None)
    if rank < k:
        raise DesignRankError(
            f"design matrix rank {rank} < {k}; repair the design first"
        )
    resid = y - design.matrix @ coeffs
    model = PceModel(
        design.config,
        list(design.indices),
        coeffs,
        np.ones(k, dtype=bool),
        {
            "fit": "full",
            "rows": design.rows,
            "residual_norm": float(np.linalg.norm(resid)),
            "condition": float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf"),
        },
    )
    return model


def lars_select(x: np.ndarray, y: np.ndarray, max_steps: int) -> list[int]:
    """Least angle regression entry order over standardized predictors.

    Plain LARS (no lasso modification): at each step the predictor most
    correlated with the residual joins the active set and the fit advances
    along the equiangular direction until a new predictor ties.
    Returns column indices in entry order.
    """
    n_rows, n_cols = x.shape
    mu = np.zeros(n_rows)
    active: list[int] = []
    signs: dict[int, float] = {}
    max_steps = min(max_steps, n_cols, n_rows - 1 if n_rows > 1 else 1)
    for _ in range(max_steps):
        c = x.T @ (y - mu)
        inactive = [j for j in range(n_cols) if j not in signs]
        if not inactive:
            break
        j_new = max(inactive, key=lambda j: (abs(c[j]), -j))
        if abs(c[j_new]) < 1e-12:
            break
        active.append(j_new)
        signs[j_new] = math.copysign(1.0, c[j_new])
        xa = x[:, active] * np.array([signs[j] for j in active])[None, :]
        g = xa.T @ xa
        try:
            ginv_one = np.linalg.solve(g, np.ones(len(active)))
        except np.linalg.LinAlgError:
            active.pop()
            del signs[j_new]
            break
        a_norm = 1.0 / math.sqrt(float(np.sum(ginv_one)))
        u = xa @ (a_norm * ginv_one)  # equiangular, unit norm
        corr_max = float(max(abs(c[j]) for j in active))
        a_vec = x.T @ u
        gamma = corr_max / a_norm  # full least-squares step by default
        for j in range(n_cols):
            if j in signs:
                continue
            for num, den in (
                (corr_max - c[j], a_norm - a_vec[j]),
                (corr_max + c[j], a_norm + a_vec[j]),
            ):
                if den > 1e-12:
                    t = num / den
                    if 1e-12 < t < gamma:
                        gamma = t
        mu = mu + gamma * u
    return active


def fit_sparse(design: CollocationDesign, y, target_terms) -> PceModel:
    """Sparse fit: LARS over standardized non-constant columns selects the
    active set, which is then re-estimated by unrestricted least squares.

    ``target_terms`` counts all selected columns of the design matrix
    including the constant one (which is always in the model); pass "auto"
    to pick the count with a leave-one-out corrected-error rule.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (design.rows,):
        raise ConfigurationError("response length does not match design rows")
    n_rows = design.rows
    k = len(design.indices)

    auto = isinstance(target_terms, str)
    if auto:
        if target_terms != "auto":
            raise ConfigurationError(f"unknown stopping rule '{target_terms}'")
    else:
        target_terms = int(target_terms)
        if target_terms < 1:
            raise ConfigurationError("target_terms must be >= 1")
        if target_terms > n_rows:
            raise ConfigurationError(
                f"target_terms {target_terms} exceeds design rows {n_rows}"
            )
        if target_terms > k:
            raise ConfigurationError(
                f"target_terms {target_terms} exceeds basis size {k}"
            )

    # standardize the non-constant columns; zero-variance columns on these
    # rows carry no information and stay out of the path
    xraw = design.matrix[:, 1:]
    mean = xraw.mean(axis=0)
    xc = xraw - mean
    norms = np.linalg.norm(xc, axis=0)
    usable = np.flatnonzero(norms > 1e-12)
    xstd = xc[:, usable] / norms[usable]
    yc = y - y.mean()

    path_len = len(usable) if auto else min(target_terms - 1, len(usable))
    order_std = lars_select(xstd, yc, path_len)
    order = [int(usable[j]) + 1 for j in order_std]  # design-matrix columns

    def _refit(cols):
        b = design.matrix[:, [0] + cols]
        coef, _, _, _ = np.linalg.lstsq(b, y, rcond=None)
        return b, coef

    if auto:
        best = None
        for m in range(len(order) + 1):
            cols = order[:m]
            b, coef = _refit(cols)
            m_tot = m + 1
            if m_tot >= n_rows:
                break
            # hat-matrix leave-one-out with a degrees-of-freedom correction
            q, _ = np.linalg.qr(b)
            h = np.clip(np.sum(q * q, axis=1), 0.0, 1.0 - 1e-12)
            resid = y - b @ coef
            loo = float(np.mean((resid / (1.0 - h)) ** 2))
            score = loo * n_rows / (n_rows - m_tot)
            if best is None or score < best[0] - 1e-15:
                best = (score, m)
        m_sel = best[1] if best else 0
        cols = order[:m_sel]
    else:
        cols = order[: target_terms - 1]

    _, coef = _refit(cols)
    coeffs = np.zeros(k)
    active = np.zeros(k, dtype=bool)
    coeffs[0] = coef[0]
    active[0] = True
    for c, j in zip(coef[1:], cols):
        coeffs[j] = c
        active[j] = True
    return PceModel(
        design.config,
        list(design.indices),
        coeffs,
        active,
        {
            "fit": "sparse-auto" if auto else "sparse",
            "rows": n_rows,
            "terms": int(active.sum()),
            "entry_order": [int(j) for j in cols],
        },
    )


def evaluate(model: PceModel, xi) -> np.ndarray:
    """Surrogate responses at standard-normal points (m, n)."""
    act = np.flatnonzero(model.active)
    a = basis_matrix(xi, [model.indices[i] for i in act])
    return a @ model.coeffs[act]


def active_bases(models, xi):
    """Yield each model's active basis functions at the points ``xi`` (what
    ``surrogate_stats_at`` takes), all read from one ``basis_matrix``
    evaluation over the union of the models' active sets.

    A model's columns come as a C-contiguous copy, bitwise equal to
    ``basis_matrix`` over its own indices (a strided view would change the
    rounding of the product that follows), or as the shared block itself
    when the model uses every column of it.
    """
    models = list(models)
    union = np.flatnonzero(np.any([m.active for m in models], axis=0))
    block = basis_matrix(xi, [models[0].indices[i] for i in union])
    for m in models:
        cols = np.searchsorted(union, np.flatnonzero(m.active))
        yield block if len(cols) == len(union) else block.take(cols, axis=1)


# -- sampling statistics -----------------------------------------------------------

@dataclass
class SampleStats:
    count: int
    mean: float
    variance: float  # 1/(M-1)
    skewness: float  # standardized third central moment
    kurtosis: float  # raw (normal -> 3)
    ci95: tuple
    samples: np.ndarray = field(repr=False, default=None)

    def moments(self) -> dict:
        return {
            "mean": self.mean,
            "variance": self.variance,
            "skewness": self.skewness,
            "kurtosis": self.kurtosis,
            "ci95_low": self.ci95[0],
            "ci95_high": self.ci95[1],
        }


def sample_moments(samples) -> SampleStats:
    y = np.asarray(samples, dtype=float)
    m = len(y)
    mean = float(np.mean(y))
    var = float(np.var(y, ddof=1)) if m > 1 else 0.0
    d = y - mean
    m2 = float(np.mean(d * d))
    if m2 > 0:
        skew = float(np.mean(d**3)) / m2**1.5
        kurt = float(np.mean(d**4)) / m2**2
    else:
        skew, kurt = 0.0, 0.0
    lo, hi = np.percentile(y, [2.5, 97.5])
    return SampleStats(m, mean, var, skew, kurt, (float(lo), float(hi)), y)


@dataclass
class SurrogateStats:
    stats: SampleStats
    analytic_mean: float
    analytic_variance: float
    clip_fraction: float


def surrogate_stats_at(model: PceModel, basis, clip_at_zero: bool = False) -> SurrogateStats:
    """Surrogate statistics on a caller-supplied block of standard-normal
    points, given as ``basis``: the values of the model's active basis
    functions there (``basis_matrix`` over its active indices), so several
    response models can share one block and one basis evaluation."""
    y = basis @ model.coeffs[model.active]
    clip_fraction = 0.0
    if clip_at_zero:
        neg = y < 0.0
        clip_fraction = float(np.mean(neg))
        y = np.maximum(y, 0.0)
    return SurrogateStats(sample_moments(y), model.mean, model.variance, clip_fraction)
