"""Statistical primitives the paper needs that scipy would normally supply.

The container has no scipy, so we build the three special functions used by
T-Crowd and the CATD baseline from scratch:

* :func:`erf` — Gauss error function: stdlib ``math.erf`` applied to each
  element of an array (a Python-level loop, not a numpy ufunc; exactly
  ``math.erf``, so results match it bit for bit).
* :func:`norm_ppf` — inverse standard-normal CDF via Acklam's rational
  approximation (|rel err| < 1.15e-9), used by :func:`chi2_ppf`.
* :func:`chi2_ppf` — chi-squared quantile via the Wilson–Hilferty cube-root
  normal approximation, used for CATD's upper-confidence source weights.

Accuracy notes live in DESIGN.md §3: approximation error is orders of
magnitude below the effect sizes the experiments measure.
"""
from __future__ import annotations

import math

import numpy as np


def erf(x: np.ndarray | float) -> np.ndarray | float:
    """Gauss error function, elementwise over scalars or arrays.

    An array input gives a float64 array of the same shape."""
    if np.isscalar(x):
        return math.erf(float(x))
    a = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(math.erf, a.ravel().tolist()), np.float64, a.size).reshape(a.shape)


# Acklam's coefficients for the inverse normal CDF.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def norm_ppf(p: np.ndarray | float) -> np.ndarray | float:
    """Inverse CDF of the standard normal (Acklam's approximation).

    Valid on (0, 1); endpoints map to ∓inf. Vectorised.
    """
    scalar = np.isscalar(p)
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))
    x = np.full_like(p, np.nan)
    x[p <= 0.0] = -np.inf
    x[p >= 1.0] = np.inf

    lo = (0.0 < p) & (p < _P_LOW)
    if lo.any():
        q = np.sqrt(-2.0 * np.log(p[lo]))
        x[lo] = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                 / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    hi = (1.0 - _P_LOW < p) & (p < 1.0)
    if hi.any():
        q = np.sqrt(-2.0 * np.log(1.0 - p[hi]))
        x[hi] = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                  / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    mid = (_P_LOW <= p) & (p <= 1.0 - _P_LOW)
    if mid.any():
        q = p[mid] - 0.5
        r = q * q
        x[mid] = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
                  / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    return float(x[0]) if scalar else x


def chi2_ppf(p: float, df: np.ndarray | float) -> np.ndarray | float:
    """Chi-squared quantile via Wilson–Hilferty: good for df >= 1, p in (0,1).

    chi2_{df}(p) ≈ df * (1 - 2/(9 df) + z_p sqrt(2/(9 df)))^3, clamped at 0.
    """
    scalar = np.isscalar(df)
    df = np.atleast_1d(np.asarray(df, dtype=np.float64))
    z = norm_ppf(p)
    t = 1.0 - 2.0 / (9.0 * df) + z * np.sqrt(2.0 / (9.0 * df))
    out = df * np.maximum(t, 0.0) ** 3
    return float(out[0]) if scalar else out
