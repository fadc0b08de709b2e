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
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, DesignRankError

ORDER = 2  # total degree of every PCE and SPCE basis
_GS_TOL = 1e-9
BASIS_BLOCK_ROWS = 1024  # points per block of basis_matrix


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


# -- collocation design --------------------------------------------------------

@dataclass
class CollocationDesign:
    points: np.ndarray  # (rows, n) standard-normal coordinates
    matrix: np.ndarray  # (rows, K) basis values
    indices: list  # K multi-indices

    @property
    def rows(self) -> int:
        return self.points.shape[0]


def _candidate_points(n: int, p: int):
    """Tensor points with at most p nonzero coordinates, each a nonzero
    root of He_{p+1}, ranked by joint standard-normal density descending
    (ties: lexicographic)."""
    roots = np.polynomial.hermite_e.hermegauss(p + 1)[0]
    nonzero = [float(r) for r in roots if abs(r) > 1e-9]
    pts = []
    for k in range(0, p + 1):
        for dims in itertools.combinations(range(n), k):
            for assign in itertools.product(nonzero, repeat=k):
                pt = np.zeros(n)
                pt[list(dims)] = assign
                pts.append(pt)
    pts.sort(key=lambda q: (round(float(q @ q), 10), tuple(q)))
    return np.array(pts)


def collocation_design(dimension: int, n_rows: int) -> CollocationDesign:
    """Select ``n_rows`` design points for the order-``ORDER`` basis in
    ``dimension`` inputs, 1 <= n_rows <= K: walking the ranked candidate
    pool, keep each candidate whose basis row adds rank to the rows kept
    so far (greedy Gram-Schmidt) until ``n_rows`` are kept.  So
    every design has full row rank and is a prefix of the square,
    nonsingular K-row design.  Raises DesignRankError if the pool runs out
    first.

    Each candidate is projected off the orthonormal rows kept so far twice
    (for numerical safety), each time as one block product
    ``r -= Q.T @ (Q @ r)`` over the kept rows ``Q``."""
    indices = multi_indices(dimension, ORDER)
    k_full = len(indices)
    if not 1 <= n_rows <= k_full:
        raise ConfigurationError(
            f"n_rows must be between 1 and the basis size {k_full}, got {n_rows}"
        )
    cand = _candidate_points(dimension, ORDER)
    a_cand = basis_matrix(cand, indices)
    q = np.empty((n_rows, k_full))  # orthonormal basis of the kept rows
    chosen = []
    for i, row in enumerate(a_cand):
        if len(chosen) == n_rows:
            break
        q_k = q[:len(chosen)]
        r = row - q_k.T @ (q_k @ row)
        r -= q_k.T @ (q_k @ r)
        nrm = np.linalg.norm(r)
        if nrm > _GS_TOL * np.linalg.norm(row):
            q[len(chosen)] = r / nrm
            chosen.append(i)
    if len(chosen) < n_rows:
        raise DesignRankError(f"candidate pool cannot reach rank {n_rows}")
    return CollocationDesign(cand[chosen], a_cand[chosen], indices)


# -- models and fitting ----------------------------------------------------------

@dataclass
class PceModel:
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

    def to_dict(self) -> dict:
        return {
            "dimension": len(self.indices[0]),
            "order": ORDER,
            "terms": {
                ",".join(map(str, ix)): float(c)
                for ix, c, act in zip(self.indices, self.coeffs, self.active)
                if act
            },
            "diagnostics": self.diagnostics,
        }


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
    return PceModel(
        list(design.indices),
        coeffs,
        np.ones(k, dtype=bool),
        {
            "fit": "full",
            "rows": design.rows,
            "condition": float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf"),
        },
    )


def lars_select(x: np.ndarray, y: np.ndarray, max_steps: int) -> list[int]:
    """Least angle regression entry order over standardized predictors.

    Plain LARS (no lasso modification): at each step the predictor most
    correlated with the residual joins the active set and the fit advances
    along the equiangular direction until a new predictor ties.  A predictor
    whose Gram matrix with the active set is singular to working precision
    is dropped from the candidates, and the path goes on without it.
    Returns column indices in entry order.
    """
    n_rows, n_cols = x.shape
    mu = np.zeros(n_rows)
    active: list[int] = []
    signs: dict[int, float] = {}
    dropped: set[int] = set()
    max_steps = min(max_steps, n_cols, n_rows - 1 if n_rows > 1 else 1)
    while len(active) < max_steps:
        c = x.T @ (y - mu)
        inactive = [j for j in range(n_cols) if j not in signs and j not in dropped]
        if not inactive:
            break
        j_new = max(inactive, key=lambda j: (abs(c[j]), -j))
        if abs(c[j_new]) < 1e-12:
            break
        inactive.remove(j_new)
        active.append(j_new)
        signs[j_new] = math.copysign(1.0, c[j_new])
        xa = x[:, active] * np.array([signs[j] for j in active])[None, :]
        g = xa.T @ xa
        try:
            ginv_one = np.linalg.solve(g, np.ones(len(active)))
            if not np.sum(ginv_one) > 0.0:  # G singular to working precision
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            active.pop()
            del signs[j_new]
            dropped.add(j_new)
            continue
        a_norm = 1.0 / math.sqrt(float(np.sum(ginv_one)))
        u = xa @ (a_norm * ginv_one)  # equiangular, unit norm
        corr_max = float(max(abs(c[j]) for j in active))
        a_vec = x.T @ u
        gamma = corr_max / a_norm  # full least-squares step by default
        for j in inactive:
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
        for m in range(min(len(order) + 1, n_rows - 1)):
            cols = order[:m]
            b, coef = _refit(cols)
            m_tot = m + 1
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


def surrogate_values(models, blocks, count) -> list:
    """Each model's values at ``count`` standard-normal points that arrive as
    consecutive ``blocks`` (what ``surrogate_stats_at`` takes), such as
    ``stochastic.standard_normals(count, n, seed, BASIS_BLOCK_ROWS)``, so
    no array of all the points and no basis array spans them: per block,
    ``basis_matrix`` is evaluated once over the union of the models' active
    sets, and each model multiplies a C-contiguous copy of its own columns
    (the block itself when it uses all of them).  The values are bitwise
    those of ``basis_matrix`` over all the points and the model's active
    indices times its coefficients (a strided view would change the
    rounding of the product)."""
    models = list(models)
    union = np.flatnonzero(np.any([m.active for m in models], axis=0))
    indices = [models[0].indices[i] for i in union]
    cols = [np.searchsorted(union, np.flatnonzero(m.active)) for m in models]
    out = [np.empty(count) for _ in models]
    r0 = 0
    for xi in blocks:
        block = basis_matrix(xi, indices)
        for y, m, c in zip(out, models, cols):
            basis = block if len(c) == len(union) else block.take(c, axis=1)
            y[r0:r0 + len(block)] = basis @ m.coeffs[m.active]
        r0 += len(block)
    if r0 != count:
        raise ConfigurationError(f"{r0} surrogate points for a count of {count}")
    return out


# -- sampling statistics -----------------------------------------------------------

@dataclass
class ClassStats:
    """One response class's sample statistics; for a surrogate also the
    fraction of samples clipped at zero and the analytic moments."""

    mean: float
    variance: float  # 1/(M-1)
    skewness: float  # standardized third central moment
    kurtosis: float  # raw (normal -> 3)
    ci95: tuple
    samples: np.ndarray = field(repr=False)
    clip_fraction: float = 0.0
    analytic_mean: float | None = None
    analytic_variance: float | None = None

    def to_dict(self) -> dict:
        out = {
            "mean": self.mean,
            "variance": self.variance,
            "skewness": self.skewness,
            "kurtosis": self.kurtosis,
            "ci95_low": self.ci95[0],
            "ci95_high": self.ci95[1],
            "count": len(self.samples),
            "clip_fraction": self.clip_fraction,
        }
        if self.analytic_mean is not None:
            out["analytic_mean"] = self.analytic_mean
            out["analytic_variance"] = self.analytic_variance
        return out


def sample_moments(samples) -> ClassStats:
    y = np.asarray(samples, dtype=float)
    m = len(y)
    mean = float(np.mean(y))
    var = float(np.var(y, ddof=1)) if m > 1 else 0.0
    d = y - mean
    d2 = d * d  # products, not np.power, which costs ten times as much here
    m2 = float(np.mean(d2))
    if m2 > 0:
        skew = float(np.mean(d2 * d)) / m2**1.5
        kurt = float(np.mean(d2 * d2)) / m2**2
    else:
        skew, kurt = 0.0, 0.0
    lo, hi = np.percentile(y, [2.5, 97.5])
    return ClassStats(mean, var, skew, kurt, (float(lo), float(hi)), y)


def surrogate_stats_at(model: PceModel, y) -> ClassStats:
    """Surrogate statistics from the model's values ``y`` on a block of
    standard-normal points (``surrogate_values``).  A delivery margin is
    never negative, so the negative values of ``y`` are set to zero in
    place and their share is reported as ``clip_fraction``."""
    clip_fraction = float(np.mean(y < 0.0))
    np.maximum(y, 0.0, out=y)
    return replace(
        sample_moments(y),
        clip_fraction=clip_fraction,
        analytic_mean=model.mean,
        analytic_variance=model.variance,
    )
