"""GTM baseline [37] — Gaussian Truth Model, continuous only.

Answers are z-scored per column (GTM's preprocessing), the truth of each
cell gets a standard-normal prior, each worker (source) has one variance
σ_u² shared across the continuous columns, and EM alternates:

* E-step: truth posterior mean/variance per cell (precision-weighted):
  T-Crowd's Gaussian cell posterior (:func:`repro.core.em.cont_posterior_arrays`)
  with the prior N(0, 1) and ``σ_u²`` as each answer's variance;
* M-step: σ_u² = mean over u's answers of (a − truth_mean)² + truth_var.

Estimates are mapped back to the original column scales at the end.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.em import cont_posterior_arrays
from ..crowd.schema import TableSchema, restrict_answers, validate_answers
from .cells import cell_index

_MAX_ITER = 50
_TOL = 1e-6  # stop once no cell's truth (z-scored) moves more than this


def gtm(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    validate_answers(answers, schema)
    cont = restrict_answers(answers, schema, "cont")
    if cont.empty:
        return pd.DataFrame(columns=["row", "col", "truth"])

    # z-score per column.
    stats = cont.groupby("col")["value"].agg(["mean", "std"]).rename(
        columns={"mean": "mu", "std": "sd"}
    )
    stats["sd"] = stats["sd"].replace(0.0, 1.0).fillna(1.0)
    cont = cont.merge(stats, left_on="col", right_index=True)
    z = ((cont["value"] - cont["mu"]) / cont["sd"]).to_numpy()

    workers, w_inv = np.unique(cont["worker"].to_numpy(np.int64), return_inverse=True)
    rows, cols, c_inv = cell_index(cont)
    n_w = len(workers)
    n_per_worker = np.maximum(np.bincount(w_inv, minlength=n_w), 1)

    var_u = np.ones(n_w)
    t_mu = np.zeros(len(rows))
    for _ in range(_MAX_ITER):
        # E-step: T-Crowd's Gaussian cell posterior with a N(0, 1) prior.
        new_mu, _, resid2 = cont_posterior_arrays(c_inv, z, var_u[w_inv], 0.0, 1.0)
        var_u = np.bincount(w_inv, weights=resid2, minlength=n_w) / n_per_worker
        var_u = np.maximum(var_u, 1e-6)
        if np.abs(new_mu - t_mu).max() < _TOL:
            t_mu = new_mu
            break
        t_mu = new_mu

    out = pd.DataFrame({"row": rows, "col": cols, "z": t_mu})
    out = out.merge(stats, left_on="col", right_index=True)
    out["truth"] = out["z"] * out["sd"] + out["mu"]
    return out[["row", "col", "truth"]].sort_values(["row", "col"]).reset_index(drop=True)
