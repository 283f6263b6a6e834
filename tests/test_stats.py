import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from persona_miner import stats
from persona_miner.errors import DataValidationError
from persona_miner.stats import (
    f_sf,
    feature_importance,
    one_way_anova,
    pca,
    studentized_range_cdf,
    tukey_hsd,
)


# -- PCA -------------------------------------------------------------------

def svd_ratio_oracle(rows):
    """Independent route: singular values of the centered data matrix."""
    data = np.asarray(rows, dtype=float)
    centered = data - data.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    var = s ** 2 / (data.shape[0] - 1)
    return var / var.sum()


def test_pca_orthonormal_loadings():
    rng = np.random.default_rng(42)
    rows = rng.normal(size=(50, 6))
    result = pca(rows, n_components=6)
    comp = np.array(result["components"])
    assert np.allclose(comp @ comp.T, np.eye(6), atol=1e-9)


def test_pca_ratios_match_svd_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(30, 5)) * rng.uniform(0.1, 10, size=5)
        result = pca(rows, n_components=5)
        expected = svd_ratio_oracle(rows)
        assert np.allclose(result["explained_variance_ratio"], expected, atol=1e-9)
        assert sum(result["explained_variance_ratio"]) == pytest.approx(1.0, abs=1e-9)


def test_pca_rank1_line():
    t = np.linspace(-3, 3, 25)
    rows = np.stack([t, t], axis=1)  # points on y = x
    result = pca(rows, n_components=2)
    assert abs(result["explained_variance_ratio"][0] - 1.0) < 1e-12
    assert result["components"][0] == pytest.approx(
        (1 / math.sqrt(2), 1 / math.sqrt(2)), abs=1e-12
    )


def test_pca_sign_convention():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(40, 4))
    for comp in pca(rows, n_components=4)["components"]:
        vec = np.array(comp)
        assert vec[int(np.argmax(np.abs(vec)))] > 0


def test_pca_reconstruction_full_rank():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(20, 4))
    centered = rows - rows.mean(axis=0)
    basis = np.array(pca(rows, n_components=4)["components"])
    recon = centered @ basis.T @ basis
    assert np.allclose(recon, centered, atol=1e-9)


def test_pca_input_validation():
    with pytest.raises(DataValidationError):
        pca([[1.0, 2.0]], n_components=1)
    with pytest.raises(DataValidationError):
        pca(np.zeros((5, 3)), n_components=4)


def test_feature_importance_ranked_signed():
    rows = np.array([[x, 0.1 * x] for x in np.linspace(-2, 2, 30)])
    result = pca(rows, n_components=1)
    imp = feature_importance(result, ["big", "small"])
    (first, second) = imp[0]
    assert first["feature"] == "big"
    assert abs(first["value"]) > abs(second["value"])
    assert first["value"] == pytest.approx(result["components"][0][0] * 100)
    with pytest.raises(DataValidationError):
        feature_importance(result, ["only-one"])


def test_feature_importance_keeps_feature_order_for_last_bit_ties():
    # |loadings| equal to 10 places rank in feature order, whichever holds the
    # larger last bits; a gap wider than that still ranks by size
    tie = 0.5773502691896258
    result = {"components": [[tie - 2e-16, -tie, tie + 2e-16, 0.3, 0.3 + 1e-9]]}
    ranked = feature_importance(result, ["a", "b", "c", "d", "e"])[0]
    assert [entry["feature"] for entry in ranked] == ["a", "b", "c", "e", "d"]
    assert ranked[1]["value"] == -tie * 100.0


# -- ANOVA -----------------------------------------------------------------

def test_f_sf_matches_scipy():
    for f, df1, df2 in [(0.5, 2, 10), (3.7, 4, 30), (13.5, 1, 4), (100.0, 2, 50)]:
        assert f_sf(f, df1, df2) == pytest.approx(
            scipy.stats.f.sf(f, df1, df2), abs=1e-12
        )


@pytest.mark.parametrize("df1", range(1, 20))
def test_f_sf_oracle_grid(df1):
    for df2 in (2, 3, 5, 10, 30, 100, 498, 1000, 5000, 20000):
        fs = scipy.stats.f.isf(np.geomspace(1e-250, 0.999, 40), df1, df2)
        fs = fs[np.isfinite(fs)]
        expected = scipy.stats.f.sf(fs, df1, df2)
        assert expected.min() >= 1e-250
        got = [f_sf(float(f), df1, df2) for f in fs]
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12,
                                   err_msg=f"df1={df1} df2={df2}")


# I_x(df2/2, df1/2) at x = df2/(df2 + df1 f), f = 0.5, 1.5, 3.0 and 8.0, from
# mpmath.betainc at 60 digits, keyed by (df1, df2)
F_SF_MPMATH = {
    (1, 498): (0.4798308621127382, 0.22125036519484628, 0.08388371322034772,
               0.00486629489902402),
    (6, 498): (0.8084714598621421, 0.17610408502609168, 0.006879928043280783,
               2.9499951197734746e-08),
    (19, 498): (0.9627609156633445, 0.07995962648204884, 2.4274268796544696e-05,
                1.7448098482383381e-19),
    (1, 10000): (0.4795165990456243, 0.22070021108002258, 0.08329535272931847,
                 0.004687039623317417),
    (6, 10000): (0.8088280105966996, 0.17370457211166135, 0.006263721712995665,
                 1.2402412206532439e-08),
    (19, 10000): (0.964148617485919, 0.07455286270687136, 1.1899374160394634e-05,
                  1.4151013603425913e-22),
    (1, 100000): (0.4795017699011423, 0.22067424690564597, 0.08326760027014629,
                  0.004678665040381435),
    (6, 100000): (0.8088449479440076, 0.17359072437918285, 0.006235344293616404,
                  1.1873697848852436e-08),
    (19, 100000): (0.9642142744377005, 0.07429601261508532, 1.147283240592139e-05,
                   9.428661400323708e-23),
    (1, 1000000): (0.47950028695865554, 0.2206716504191245, 0.08326482502421001,
                   0.004677827982931296),
    (6, 1000000): (0.8088466422726522, 0.17357933629045064, 0.00623250999035346,
                   1.1821912948117896e-08),
    (19, 1000000): (0.9642208410932072, 0.07427031895436981, 1.1430850643602404e-05,
                    9.049613274201768e-23),
}


@pytest.mark.parametrize("df1, df2", list(F_SF_MPMATH))
def test_f_sf_large_df2_matches_mpmath(df1, df2):
    # the continued fraction's terms in x = 1 - y still lose about df2 ulps
    got = [f_sf(f, df1, df2) for f in (0.5, 1.5, 3.0, 8.0)]
    np.testing.assert_allclose(got, F_SF_MPMATH[df1, df2], rtol=2e-16 * df2, atol=0)


def test_f_sf_bounded_and_monotone_in_f():
    for df1, df2 in ((1, 2), (2, 10), (4, 498), (19, 20000)):
        values = np.array([f_sf(float(f), df1, df2)
                           for f in np.geomspace(1e-6, 1e4, 400)])
        assert np.all(np.diff(values) <= 0.0), (df1, df2)
        assert values[0] <= 1.0 and values[-1] >= 0.0
        for f in (0.0, -1.0, 1e-320):
            assert f_sf(f, df1, df2) == 1.0
        assert f_sf(math.inf, df1, df2) == 0.0


def test_ndtr_matches_scipy():
    a = np.linspace(-40.0, 40.0, 400_001)
    got, expected = stats._ndtr(a), scipy.special.ndtr(a)
    np.testing.assert_allclose(got, expected, rtol=0, atol=2e-16)
    # below 0 it is 0.5 * erfc(|x|), so also relative to its size above the subnormals
    lower = (a < 0.0) & (expected > 1e-300)
    np.testing.assert_allclose(got[lower], expected[lower], rtol=2e-15, atol=0)
    assert np.array_equal(got[expected == 0.0], expected[expected == 0.0])
    assert np.array_equal(got[expected == 1.0], expected[expected == 1.0])


def test_anova_equal_means_f_zero():
    result = one_way_anova([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])
    assert result["f_statistic"] == pytest.approx(0.0, abs=1e-12)
    assert result["p_value"] == pytest.approx(1.0, abs=1e-12)


def test_anova_constant_identical_groups():
    result = one_way_anova([[5.0, 5.0], [5.0, 5.0]])
    assert result["f_statistic"] == 0.0
    assert result["p_value"] == 1.0


def test_anova_fixture_f_13_5():
    result = one_way_anova([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert result["f_statistic"] == pytest.approx(13.5, abs=1e-9)
    f, p = scipy.stats.f_oneway([1, 2, 3], [4, 5, 6])
    assert result["p_value"] == pytest.approx(p, abs=1e-12)
    assert result["df_between"] == 1 and result["df_within"] == 4


def test_two_group_f_equals_t_squared():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.normal(0, 1, 12)
        b = rng.normal(0.8, 1, 9)
        result = one_way_anova([a, b])
        t, _p = scipy.stats.ttest_ind(a, b)
        assert result["f_statistic"] == pytest.approx(t ** 2, abs=1e-9)


def test_anova_matches_scipy_on_random_groups():
    rng = np.random.default_rng(17)
    for _ in range(10):
        groups = [rng.normal(rng.uniform(-1, 1), 1, int(rng.integers(3, 20)))
                  for _ in range(int(rng.integers(2, 6)))]
        result = one_way_anova(groups)
        f, p = scipy.stats.f_oneway(*groups)
        assert result["f_statistic"] == pytest.approx(f, rel=1e-10)
        assert result["p_value"] == pytest.approx(p, abs=1e-10)


def test_anova_zero_within_distinct_means():
    result = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
    assert result["f_statistic"] == math.inf
    assert result["p_value"] == 0.0
    assert result["p_approx_zero"]


def test_anova_p_value_underflow_is_flagged():
    rng = np.random.default_rng(0)
    result = one_way_anova([rng.normal(0.0, 1e-3, 400), rng.normal(1.0, 1e-3, 400)])
    assert result["f_statistic"] > 1e6
    assert result["p_value"] == 0.0
    assert result["p_approx_zero"]


def test_anova_validation():
    with pytest.raises(DataValidationError):
        one_way_anova([[1.0, 2.0]])
    with pytest.raises(DataValidationError):
        one_way_anova([[1.0], [2.0, 3.0]])


# -- studentized range / Tukey ---------------------------------------------

def test_studentized_range_cdf_matches_scipy():
    for q, k, df in [(3.0, 3, 10), (2.5, 4, 20), (4.5, 3, 5), (1.0, 5, 30),
                     (6.0, 7, 60)]:
        expected = scipy.stats.studentized_range.cdf(q, k, df)
        assert studentized_range_cdf(q, k, df) == pytest.approx(expected, abs=1e-7)


def test_studentized_range_cdf_monotone_in_q():
    for k, df in [(2, 2), (3, 12), (20, 99999)]:
        values = np.array([studentized_range_cdf(float(q), k, df)
                           for q in np.linspace(0.01, 12.0, 600)])
        assert np.all(np.diff(values) >= 0.0), (k, df)
        assert values[0] >= 0.0 and values[-1] <= 1.0
    assert studentized_range_cdf(0.0, 3, 12) == 0.0


# scipy switches to its asymptotic form at df >= 1e5, so the grid stops below
@pytest.mark.parametrize("k", [2, 3, 5, 10, 20])
def test_studentized_range_cdf_oracle_grid(k):
    qs = np.geomspace(0.05, 20.0, 10)
    for df in (2, 3, 5, 10, 60, 490, 5000, 20000, 99999):
        expected = scipy.stats.studentized_range.cdf(qs, k, df)
        got = [studentized_range_cdf(float(q), k, df) for q in qs]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9,
                                   err_msg=f"k={k} df={df}")


@pytest.mark.parametrize("k", [2, 3, 6])
def test_tukey_calls_range_cdf_once_per_pair(monkeypatch, k):
    calls = []

    def counting(q, k_, df):
        calls.append((k_, df))
        return 0.5

    monkeypatch.setattr(stats, "studentized_range_cdf", counting)
    groups = [[float(g), g + 1.0, g + 3.0] for g in range(k)]
    pairs = tukey_hsd(groups)
    assert len(calls) == math.comb(k, 2) == len(pairs)
    assert set(calls) == {(k, 2 * k)}


def test_tukey_far_outlier_rejects_exactly_two_pairs():
    a = [10.0, 10.5, 9.5, 10.2]
    b = [10.1, 10.4, 9.8, 10.0]
    c = [50.0, 50.5, 49.5, 50.2]
    pairs = tukey_hsd([a, b, c])
    rejected = {(p["group_a"], p["group_b"]) for p in pairs if p["reject"]}
    assert rejected == {(0, 2), (1, 2)}


def test_tukey_pvalues_match_scipy():
    rng = np.random.default_rng(23)
    groups = [rng.normal(m, 1.0, n) for m, n in [(0.0, 8), (1.0, 10), (0.4, 7)]]
    pairs = tukey_hsd(groups)
    oracle = scipy.stats.tukey_hsd(*groups)
    for pair in pairs:
        assert pair["p_adjusted"] == pytest.approx(
            oracle.pvalue[pair["group_a"], pair["group_b"]], abs=1e-6
        )
        assert pair["mean_diff"] == pytest.approx(
            float(np.mean(groups[pair["group_a"]]) - np.mean(groups[pair["group_b"]]))
        )


def test_tukey_group_reorder_invariance():
    groups = [[1.0, 2.0, 1.5], [5.0, 5.5, 4.5], [1.1, 2.1, 1.4]]
    forward = tukey_hsd(groups)
    backward = tukey_hsd(groups[::-1])
    assert sorted(round(p["p_adjusted"], 10) for p in forward) == \
        sorted(round(p["p_adjusted"], 10) for p in backward)


def test_tukey_identical_groups_accept_all():
    pairs = tukey_hsd([[1.0, 2.0, 3.0]] * 3)
    assert all(not p["reject"] for p in pairs)
    assert all(p["p_adjusted"] > 0.99 for p in pairs)
