"""Cluster validation: PCA, one-way ANOVA and Tukey HSD, and stats.json.

PCA, ANOVA and Tukey HSD each return the values stats.json holds, so this
module alone decides that file's format: :func:`stats_block` gathers them, :func:`write_stats_json`
writes them.

Both special functions are computed here, so scipy is not a run-time
dependency; the test suite keeps ``scipy.special`` and ``scipy.stats`` as
their oracles. The F-test p-value is the regularized incomplete beta
function by its continued fraction, evaluated with the modified Lentz
method (Numerical Recipes, 3rd ed., section 6.4); from df2 = 20 on, its
prefactor takes lgamma(a + b) - lgamma(a) from Stirling's series, as TOMS 708
(DiDonato & Morris 1992) does. The normal CDF ``_ndtr``
ports Cephes ``ndtr``, which rests on Cody's rational approximations to erf
and erfc (Cody 1969, Math. Comp. 23). The studentized range CDF is R's
``ptukey`` method (Copenhaver & Holland 1988): fixed 16-point
Gauss-Legendre nodes on 8 equal panels of z in [-8.5, 8.5] for the range of
k normals, and on 16 equal panels of t = log u for the scaled-chi pooled
standard deviation u, one path for every df. It agrees with a 4x finer rule
within 1e-10 (k <= 20, df 2..99999). numpy is imported inside the functions
that use it, and the fixed nodes are built on first use, so it is not loaded
at CLI start: ``--help`` and the ``metrics``, ``classify`` and ``report``
commands never load it.
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import combinations
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .errors import DataValidationError, write_json
from .metrics import FEATURE_NAMES

if TYPE_CHECKING:
    import numpy as np

# p-values below this are indistinguishable from zero and reported as 0.0
P_CLAMP = 1e-300
# Tukey HSD rejects a pair whose adjusted p-value is below this
ALPHA = 0.05

# Cephes ndtr.c coefficients: erf(x) = x T(x^2) / U(x^2) for |x| < 1;
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8 and exp(-x^2) R(x) / S(x)
# beyond. U, Q and S have an implicit leading coefficient of 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # Cephes: erfc(x) is 0 once x^2 exceeds this
_SQRT1_2 = 0.70710678118654752440

_CF_TINY = 1e-300  # Lentz: stands in for a zero denominator
_CF_MAX_TERMS = 1000  # far above the <= 60 seen for df1 <= 50, df2 <= 2e6
# lgamma's Stirling series: the coefficients B_2k / (2k (2k - 1)), k = 1..7, of
# z^(1 - 2k); from z = 10 the first omitted term is below 3e-17
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STIRLING_MIN = 10.0


@functools.cache
def _legendre16():
    import numpy as np

    return np.polynomial.legendre.leggauss(16)


def _gauss_legendre(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-point rule on equal panels of [lo, hi]."""
    import numpy as np

    gl_nodes, gl_weights = _legendre16()
    half = (hi - lo) / (2 * panels)
    mids = lo + half * (2 * np.arange(panels) + 1)
    nodes = (mids[:, None] + half * gl_nodes).ravel()
    return nodes, np.tile(half * gl_weights, panels)


@functools.cache
def _z_grid():
    """z nodes for the range of k standard normals, with phi(z)*w and Phi(z)."""
    import numpy as np

    z, z_weights = _gauss_legendre(-8.5, 8.5, 8)
    phi_w = z_weights * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf_z = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in z])
    return z, phi_w, cdf_z


def _rational(w: np.ndarray, x: np.ndarray, num: tuple[float, ...],
              den: tuple[float, ...]) -> np.ndarray:
    """w * num(x) / den(x) by Horner's rule, as Cephes polevl/p1evl order it;
    overwrites and returns w."""
    p = x * num[0]
    for c in num[1:-1]:
        p += c
        p *= x
    p += num[-1]
    q = x + den[0]
    for c in den[1:]:
        q *= x
        q += c
    w *= p
    w /= q
    return w


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise: Cephes ``ndtr``, each branch on its subset.

    In place on the subsets, because fresh full-grid temporaries cost more
    than the arithmetic.
    """
    import numpy as np

    x = a * _SQRT1_2
    z = np.abs(x)
    # 0 or 1 where erfc(|x|) underflows; Cephes's x^2 > MAXLOG test first holds at 26.64
    out = np.greater(x, 0.0, out=np.empty_like(x))
    inner = z < 1.0
    x_in = x[inner]
    erf = _rational(x_in, x_in * x_in, _ERF_T, _ERF_U)
    erf *= 0.5
    erf += 0.5
    out[inner] = erf
    near = z < 8.0
    for mask, num, den in ((near & ~inner, _ERFC_P, _ERFC_Q),
                           (~near & (z < 27.0), _ERFC_R, _ERFC_S)):
        z_m = z[mask]
        e = z_m * z_m
        under = e > _MAXLOG
        np.negative(e, out=e)
        np.exp(e, out=e)
        e[under] = 0.0
        half_erfc = _rational(e, z_m, num, den)
        half_erfc *= 0.5
        np.subtract(1.0, half_erfc, out=half_erfc, where=x[mask] > 0.0)
        out[mask] = half_erfc
    return out


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by the modified Lentz method.

    Converges fast for x < (a + 1) / (a + b + 2); callers swap a and b beyond.
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        m2 = 2 * m
        for coef in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                     -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + coef / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= d * c
        if abs(d * c - 1.0) <= sys.float_info.epsilon:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge "
                          f"(a={a}, b={b}, x={x})")


def pca(rows, n_components: int) -> dict:
    """Eigendecompose the sample covariance of mean-centered rows; return the
    unit-length loading vectors as ``components`` and their
    ``explained_variance_ratio``.

    Sign convention: the largest-magnitude loading of each component is made
    positive so results reproduce across platforms.
    """
    import numpy as np

    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise DataValidationError("PCA needs a 2-d array with at least 2 rows")
    n_features = data.shape[1]
    if n_components > n_features:
        raise DataValidationError("n_components exceeds the feature count")

    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (data.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]

    trace = float(eigvals.sum())
    ratios = eigvals / trace if trace > 0 else np.zeros_like(eigvals)

    components = []
    for idx in range(n_components):
        vec = eigvecs[:, idx].copy()
        pivot = int(np.argmax(np.abs(vec)))
        if vec[pivot] < 0:
            vec = -vec
        components.append([float(x) for x in vec])
    return {"components": components,
            "explained_variance_ratio": [float(r) for r in ratios[:n_components]]}


def feature_importance(result: dict, feature_names: Sequence[str]) -> list[list[dict]]:
    """Per component of a :func:`pca` result, each feature's ``feature`` name
    and signed loading x100 as ``value``, ranked by absolute loading."""
    if len(feature_names) != len(result["components"][0]):
        raise DataValidationError("feature_names length must match the feature count")
    rankings = []
    for comp in result["components"]:
        # loadings equal to 10 places, which a CPU's kernels may order either
        # way in their last bits, keep the features' order
        ranked = sorted(zip(feature_names, comp), key=lambda nv: -round(abs(nv[1]), 10))
        rankings.append([{"feature": name, "value": value * 100.0}
                         for name, value in ranked])
    return rankings


def _check_groups(groups: Sequence[Sequence[float]]) -> list[np.ndarray]:
    import numpy as np

    if len(groups) < 2:
        raise DataValidationError("need at least 2 groups")
    arrays = [np.asarray(g, dtype=float) for g in groups]
    for g in arrays:
        if g.size < 2:
            raise DataValidationError("each group needs at least 2 values")
    return arrays


def _stirling_w(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), for z >= _STIRLING_MIN."""
    r = 1.0 / (z * z)
    w = 0.0
    for c in reversed(_STIRLING):
        w = w * r + c
    return w / z


def f_sf(f: float, df1: int, df2: int) -> float:
    """Upper tail of the F distribution: I_x(df2/2, df1/2) at x = df2/(df2 + df1 f)."""
    if f <= 0:
        return 1.0
    a, b = df2 / 2.0, df1 / 2.0
    s = df2 + df1 * f
    # y from f directly: 1 - x loses the low bits of a small y
    x, y = df2 / s, df1 * f / s
    if y == 0.0:
        return 1.0
    if x == 0.0:
        return 0.0
    if a >= _STIRLING_MIN:
        # the prefactor's lgamma(a + b) - lgamma(a) + a log x in Stirling
        # form, free of the cancellation between terms of size a log a
        log_front = (b * math.log((a + b) * y) + (a - 0.5) * math.log1p(b / a) - b
                     + _stirling_w(a + b) - _stirling_w(a)
                     - a * math.log1p(df1 * f / df2) - math.lgamma(b))
    else:
        log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def one_way_anova(groups: Sequence[Sequence[float]]) -> dict:
    """Classic F = MS_between / MS_within with beta-function p-value: the
    ``f_statistic``, ``p_value``, ``df_between`` and ``df_within``, and
    ``p_approx_zero`` when the p-value is reported as 0.0."""
    arrays = _check_groups(groups)
    k = len(arrays)
    n = sum(g.size for g in arrays)
    grand_mean = sum(float(g.sum()) for g in arrays) / n

    ss_between = sum(g.size * (float(g.mean()) - grand_mean) ** 2 for g in arrays)
    ss_within = sum(float(((g - g.mean()) ** 2).sum()) for g in arrays)
    df_between = k - 1
    df_within = n - k
    dfs = {"df_between": df_between, "df_within": df_within}

    if ss_within == 0.0:
        if ss_between == 0.0:
            return {"f_statistic": 0.0, "p_value": 1.0, **dfs, "p_approx_zero": False}
        return {"f_statistic": math.inf, "p_value": 0.0, **dfs, "p_approx_zero": True}

    f = (ss_between / df_between) / (ss_within / df_within)
    p = f_sf(f, df_between, df_within)
    if p < P_CLAMP:  # an underflow to 0.0 included
        return {"f_statistic": f, "p_value": 0.0, **dfs, "p_approx_zero": True}
    return {"f_statistic": f, "p_value": p, **dfs, "p_approx_zero": False}


def studentized_range_cdf(q: float, k: int, df: int) -> float:
    """P(Q <= q) for the studentized range with k groups and df error dof.

    Integrates the normal-range CDF against the scaled-chi density of the
    pooled standard deviation u, over t = log u, on fixed nodes.
    """
    import numpy as np

    if q <= 0:
        return 0.0
    sigma = 1.0 / math.sqrt(2.0 * df)  # sd of t near its mode at 0
    t, t_weights = _gauss_legendre(-max(40.0 / df, 14.0 * sigma),
                                   min(14.0 * sigma, 3.0), 16)
    log_norm = (df / 2.0) * math.log(df) - math.lgamma(df / 2.0) \
        - (df / 2.0 - 1.0) * math.log(2.0)
    density = t_weights * np.exp(log_norm + df * t - df * np.exp(2.0 * t) / 2.0)
    # normal-range CDF at r = q*u for every u node, over the z nodes
    z, phi_w, cdf_z = _z_grid()
    spread = cdf_z - _ndtr(z - q * np.exp(t)[:, None])
    range_cdf = k * (spread ** (k - 1) @ phi_w)
    return min(1.0, float(range_cdf @ density))


def tukey_hsd(groups: Sequence[Sequence[float]]) -> list[dict]:
    """Tukey-Kramer pairwise comparisons against the studentized range: per
    pair, ``group_a``, ``group_b``, their ``mean_diff``, ``p_adjusted`` and
    whether the pair is a ``reject``."""
    arrays = _check_groups(groups)
    k = len(arrays)
    n = sum(g.size for g in arrays)
    df_within = n - k
    ss_within = sum(float(((g - g.mean()) ** 2).sum()) for g in arrays)
    ms_within = ss_within / df_within

    pairs = []
    for a, b in combinations(range(k), 2):
        diff = float(arrays[a].mean()) - float(arrays[b].mean())
        if ms_within == 0.0:
            p_adj = 1.0 if diff == 0.0 else 0.0
        else:
            se = math.sqrt(ms_within / 2.0 * (1.0 / arrays[a].size + 1.0 / arrays[b].size))
            q = abs(diff) / se
            p_adj = 1.0 - studentized_range_cdf(q, k, df_within)
            p_adj = min(1.0, max(0.0, p_adj))
        pairs.append({"group_a": a, "group_b": b, "mean_diff": diff,
                      "p_adjusted": p_adj, "reject": p_adj < ALPHA})
    return pairs


def stats_block(rows: np.ndarray, members: list[list[int]]) -> dict:
    """PCA and feature importance (n >= 2), plus per-feature ANOVA and Tukey
    HSD when there are two or more clusters of at least two members each.

    ``members[c]`` lists the row indices of cluster c.
    """
    block: dict = {"pca": None, "feature_importance": None, "anova": {},
                   "tukey": {}}
    if rows.shape[0] >= 2:
        block["pca"] = pca(rows, min(3, rows.shape[1]))
        block["feature_importance"] = feature_importance(block["pca"], FEATURE_NAMES)

    if len(members) >= 2 and all(len(m) >= 2 for m in members):
        for f_idx, name in enumerate(FEATURE_NAMES):
            groups = [rows[m, f_idx] for m in members]
            block["anova"][name] = one_way_anova(groups)
            block["tukey"][name] = tukey_hsd(groups)
    return block


def write_stats_json(block: dict, path: Union[str, Path],
                     diagnostics: Optional[dict] = None) -> None:
    """Write stats.json: a :func:`stats_block`, plus ``run``'s clustering
    diagnostics when given."""
    obj = {"format": "persona-miner-stats", "version": 1, **block}
    if diagnostics is not None:
        obj["diagnostics"] = diagnostics
    write_json(path, obj, sort_keys=True)
