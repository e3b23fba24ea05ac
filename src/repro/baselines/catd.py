"""CATD baseline [17] — confidence-aware truth discovery for long-tail data.

CATD weights each source (worker) by the inverse of the upper bound of the
confidence interval of its error-variance estimate: with n_u answers and
summed normalised squared loss l_u,

    w_u = chi2_ppf(significance/2, df = n_u) / l_u ,

the lower χ² quantile, so workers with few answers (the long tail) are not
over-trusted: at equal loss per answer χ²_{0.025}(n)/n rises towards 1 as
n grows, and a 5-answer worker gets 0.27x the weight of a 40-answer one.
Distances, the weighted vote and mean, the MV/median start and the
stopping rule are CRH's loop
(:func:`repro.baselines.crh.weighted_truth_discovery`) with this weight.

The χ² quantile comes from `repro.crowd.stats.chi2_ppf` (exact; no scipy
offline).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema
from ..crowd.stats import chi2_ppf
from .crh import weighted_truth_discovery


_SIGNIFICANCE = 0.05
_MAX_ITER = 10
_TOL = 1e-6


def catd_weights(n_u: np.ndarray):
    """w_u = chi2_ppf(significance/2, n_u) / loss_u."""
    chi = chi2_ppf(_SIGNIFICANCE / 2.0, n_u)
    return lambda loss_u: chi / loss_u


def catd(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    return weighted_truth_discovery(answers, schema, catd_weights, max_iter=_MAX_ITER, tol=_TOL)
