"""Unit tests for repro.crowd.stats — the scipy-replacement primitives."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.stats import chi2_ppf, erf, norm_ppf


class TestErf:
    def test_scalar_matches_math(self):
        for x in [-3.0, -1.0, -0.1, 0.0, 0.5, 1.7, 4.0]:
            assert erf(x) == math.erf(x)

    def test_vector_matches_math(self):
        xs = np.linspace(-5, 5, 101)
        got = erf(xs)
        want = np.array([math.erf(float(x)) for x in xs])
        np.testing.assert_allclose(got, want, rtol=0, atol=0)

    def test_returns_float64_array(self):
        assert erf(np.array([0.1, 0.2])).dtype == np.float64

    @pytest.mark.parametrize(
        "xs", [np.array(0.3), np.linspace(-2, 2, 6).reshape(2, 3), np.array([]),
               np.zeros((0, 4)), np.array([1, 2], dtype=np.int64)],
    )
    def test_keeps_shape_float64(self, xs):
        got = erf(xs)
        assert isinstance(got, np.ndarray)
        assert got.shape == xs.shape and got.dtype == np.float64
        want = [math.erf(float(x)) for x in xs.ravel()]
        assert got.ravel().tolist() == want

    def test_odd_function(self):
        xs = np.linspace(0, 4, 20)
        np.testing.assert_allclose(erf(xs), -erf(-xs))

    def test_limits(self):
        assert erf(0.0) == 0.0
        assert erf(10.0) == pytest.approx(1.0)
        assert erf(-10.0) == pytest.approx(-1.0)

    @given(st.floats(-6, 6))
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, x):
        assert -1.0 <= erf(x) <= 1.0


class TestNormPpf:
    def test_median(self):
        assert norm_ppf(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_known_quantiles(self):
        # Reference values from scipy.stats.norm.ppf.
        assert norm_ppf(0.975) == pytest.approx(1.959963985, abs=1e-7)
        assert norm_ppf(0.995) == pytest.approx(2.575829304, abs=1e-7)
        assert norm_ppf(0.841344746) == pytest.approx(1.0, abs=1e-6)
        assert norm_ppf(0.025) == pytest.approx(-1.959963985, abs=1e-7)

    def test_symmetry(self):
        ps = np.linspace(0.01, 0.49, 25)
        np.testing.assert_allclose(norm_ppf(ps), -norm_ppf(1 - ps), atol=1e-8)

    def test_tails(self):
        # Deep-tail branch of Acklam's approximation.
        assert norm_ppf(1e-10) == pytest.approx(-6.361340902, abs=1e-5)
        assert norm_ppf(1 - 1e-10) == pytest.approx(6.361340902, abs=1e-5)

    def test_endpoints(self):
        assert norm_ppf(0.0) == -np.inf
        assert norm_ppf(1.0) == np.inf

    def test_roundtrip_with_erf(self):
        # CDF(x) = (1 + erf(x/sqrt(2)))/2, so ppf(CDF(x)) == x.
        for x in [-2.5, -1.0, 0.3, 1.8]:
            p = (1 + math.erf(x / math.sqrt(2))) / 2
            assert norm_ppf(p) == pytest.approx(x, abs=2e-8)

    def test_vectorised(self):
        out = norm_ppf(np.array([0.25, 0.5, 0.75]))
        assert out.shape == (3,)
        assert out[0] == pytest.approx(-out[2], abs=1e-9)


class TestChi2Ppf:
    def test_known_values(self):
        # Reference values from scipy.stats.chi2.ppf.
        assert chi2_ppf(0.975, 10) == pytest.approx(20.483, rel=5e-3)
        assert chi2_ppf(0.975, 50) == pytest.approx(71.420, rel=5e-3)
        assert chi2_ppf(0.5, 20) == pytest.approx(19.337, rel=5e-3)

    def test_monotone_in_df(self):
        dfs = np.arange(1, 100)
        vals = chi2_ppf(0.975, dfs)
        assert np.all(np.diff(vals) > 0)

    def test_monotone_in_p(self):
        assert chi2_ppf(0.9, 10) < chi2_ppf(0.95, 10) < chi2_ppf(0.99, 10)

    def test_nonnegative(self):
        assert np.all(chi2_ppf(0.001, np.arange(1, 30)) >= 0)

    def test_scalar_and_vector(self):
        assert isinstance(chi2_ppf(0.9, 5), float)
        assert chi2_ppf(0.9, np.array([5.0, 6.0])).shape == (2,)
