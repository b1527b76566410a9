import numpy as np
import pytest
from scipy.special import ndtr

from zigzag_pca import stats as st
from conftest import batch_autocorr_reference, two_sample_distance


class TestSummarizeLine:
    def test_constant_line_flags_undefined_autocorr(self):
        s = st.summarize_line(np.full(100, 3.25))
        assert s.variance == 0.0
        assert not s.autocorr_defined
        assert np.isnan(s.autocorr[0])

    def test_iid_normal_has_no_lag_correlation(self):
        rng = np.random.default_rng(12)
        s = st.summarize_line(rng.standard_normal(100_000))
        assert abs(s.autocorr[0]) < 3 * s.se_autocorr[0]

    def test_recovers_ar1_coefficient(self):
        rng = np.random.default_rng(8)
        phi = 0.5
        n = 100_000
        x = np.empty(n)
        x[0] = 0.0
        eps = rng.standard_normal(n)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + eps[i]
        s = st.summarize_line(x)
        assert abs(s.autocorr[0] - phi) < 3 * s.se_autocorr[0]
        assert abs(s.variance - 1 / (1 - phi ** 2)) < 3 * s.se_variance

    def test_short_input_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            st.summarize_line(np.arange(9))

    def test_autocorr_magnitudes_bounded(self):
        rng = np.random.default_rng(3)
        s = st.summarize_line(rng.uniform(size=500))
        assert all(abs(a) <= 1 + 1e-12 for a in s.autocorr)

    def test_estimator_sanity_over_seeds(self):
        # known law: mean 1.5, sd 2; count trials where both estimates land
        # within 4 standard errors
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            s = st.summarize_line(1.5 + 2.0 * rng.standard_normal(4000))
            ok = abs(s.mean - 1.5) <= 4 * s.se_mean
            ok &= abs(s.variance - 4.0) <= 4 * s.se_variance
            hits += bool(ok)
        assert hits >= 99


class TestBatchAutocorr:
    @pytest.mark.parametrize("kind", ["walk", "constant", "one-constant-batch"])
    @pytest.mark.parametrize("n", [10, 57, 3901, 400_001])
    def test_matches_the_per_batch_loop(self, n, kind):
        x = np.random.default_rng(n).standard_normal(n).cumsum()
        nb = int(np.sqrt(n))
        blen = n // nb
        if kind == "constant":
            x[:] = 1.25
        elif kind == "one-constant-batch":
            x[blen:2 * blen] = -0.5
        batches = x[:nb * blen].reshape(nb, blen)
        want = batch_autocorr_reference(batches)
        with np.errstate(invalid="ignore"):
            got = st._batch_autocorr(batches, batches.mean(axis=1))
        assert got.tobytes() == want.tobytes()
        s = st.summarize_line(x)
        if kind == "constant":
            assert not s.autocorr_defined and all(np.isnan(s.se_autocorr))
        else:
            se = np.nanstd(want, axis=0, ddof=1) / np.sqrt(nb)
            assert np.array(s.se_autocorr).tobytes() == se.tobytes()

    @pytest.mark.parametrize("chunk", [1, 40, 1 << 13])
    def test_chunks_do_not_move_a_bit(self, monkeypatch, chunk):
        x = np.random.default_rng(5).standard_normal(20_000)
        want = st.summarize_line(x)
        monkeypatch.setattr(st, "_AC_CHUNK", chunk)
        assert st.summarize_line(x) == want


class TestKsDistance:
    def test_sample_from_target_passes(self):
        rng = np.random.default_rng(21)
        res = st.ks_distance(rng.standard_normal(20_000), ndtr)
        assert res.passed

    def test_own_empirical_cdf_at_floor(self):
        x = np.sort(np.random.default_rng(2).uniform(size=500))

        def ecdf(q):
            return np.searchsorted(x, q, side="right") / x.size

        res = st.ks_distance(x, ecdf)
        assert res.distance <= 1.0 / x.size + 1e-12

    def test_wrong_scale_fails(self):
        rng = np.random.default_rng(4)
        sample = 1.4142135623730951 * rng.standard_normal(10_000)
        res = st.ks_distance(sample, ndtr)
        assert not res.passed

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            st.ks_distance(np.array([]), ndtr)


class TestTwoSample:
    def test_identical_samples_distance_zero(self):
        x = np.random.default_rng(5).standard_normal(2000)
        res = two_sample_distance(x, x.copy())
        assert res.distance == 0.0

    def test_same_law_passes(self):
        rng = np.random.default_rng(6)
        res = two_sample_distance(rng.standard_normal(5000), rng.standard_normal(5000))
        assert res.passed

    def test_shifted_laws_fail(self):
        rng = np.random.default_rng(7)
        res = two_sample_distance(rng.standard_normal(2000), rng.standard_normal(2000) + 2.0)
        assert not res.passed

    def test_short_samples_rejected(self):
        with pytest.raises(ValueError, match="1000"):
            two_sample_distance(np.zeros(500), np.zeros(2000))
