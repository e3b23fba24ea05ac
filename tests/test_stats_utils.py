"""Unit tests for repro.crowd.stats — the scipy-replacement primitives."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.stats import chi2_ppf, erf


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

    @pytest.mark.parametrize("df", [1, 2, 5, 40, 300])
    @pytest.mark.parametrize("p", [1e-3, 0.025, 0.5, 0.975, 1 - 1e-9])
    def test_matches_mpmath(self, p, df):
        # The lower-tail probability of the quantile, computed by mpmath's
        # regularised incomplete gamma at 30 digits, is p.
        x = chi2_ppf(p, df)
        with mpmath.workdps(30):
            got = mpmath.gammainc(mpmath.mpf(df) / 2, 0, mpmath.mpf(x) / 2, regularized=True)
        assert float(got) == pytest.approx(p, rel=1e-12)
