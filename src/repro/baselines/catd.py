"""CATD baseline [17] — confidence-aware truth discovery for long-tail data.

CATD weights each source (worker) by the upper bound of the confidence
interval of its error-variance estimate: with n_u answers and summed
normalised squared loss l_u,

    w_u = chi2_ppf(1 - significance/2, df = n_u) / l_u ,

meant to keep workers with few answers (the long tail) from being
over-trusted. With the upper quantile the effect is the reverse: at equal
loss per answer χ²_{0.975}(n)/n falls as n grows, so a 5-answer worker
gets 1.7x the weight of a 40-answer one (an expected-failure test in
tests/test_baselines.py records this). Distances, the weighted vote and
mean, the MV/median start and the stopping rule are CRH's loop
(:func:`repro.baselines.crh.weighted_truth_discovery`) with this weight.

The χ² quantile comes from `repro.crowd.stats.chi2_ppf` (Wilson–Hilferty;
no scipy offline).
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema
from ..crowd.stats import chi2_ppf
from .crh import weighted_truth_discovery


def catd_weights(n_u: np.ndarray, *, significance: float):
    """w_u = chi2_ppf(1 - significance/2, n_u) / loss_u."""
    chi = chi2_ppf(1.0 - significance / 2.0, n_u)
    return lambda loss_u: chi / loss_u


def catd(
    answers: pd.DataFrame,
    schema: TableSchema,
    *,
    significance: float = 0.05,
    max_iter: int = 10,
    tol: float = 1e-6,
) -> pd.DataFrame:
    rule = partial(catd_weights, significance=significance)
    return weighted_truth_discovery(answers, schema, rule, max_iter=max_iter, tol=tol)
