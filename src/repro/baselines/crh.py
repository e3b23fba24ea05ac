"""CRH baseline [18] — heterogeneous truth discovery — and the weight ↔ truth
loop it shares with CATD.

CRH minimises Σ_u w_u Σ_cells d(a^u_ij, T̂_ij) with the entropy-style
regulariser that yields the closed-form weight update

    w_u = log( Σ_{u'} loss_{u'} / loss_u ).

Distances follow the CRH paper: 0-1 loss for categorical columns and the
squared distance normalised by the column's answer std for continuous
columns. Truth updates are weighted votes (categorical) and weighted means
(continuous). Initialisation is MV/median. :func:`weighted_truth_discovery`
runs this loop for any weight rule; CATD (`catd.py`) differs only in it.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema, validate_answers
from .voting import voted_truth

_EPS = 1e-9
_MAX_ITER = 20
_TOL = 1e-6  # stop once the total loss moves less than this, relatively


def weighted_truth_discovery(
    answers: pd.DataFrame,
    schema: TableSchema,
    weight_rule,
    *,
    max_iter: int,
) -> pd.DataFrame:
    """Alternate source weights and truths from an MV/median start.

    ``weight_rule(n_u)``, called once with each worker's answer count,
    returns the map from each worker's summed loss to its weight. Stops
    after ``max_iter`` rounds, or once the total loss changes by less than
    ``_TOL`` relative to the previous round's.
    """
    validate_answers(answers, schema)
    a = answers.copy()
    sds = {
        j: max(float(a.loc[a["col"] == j, "value"].std(ddof=0)), _EPS)
        for j in schema.continuous_idx
    }
    a["is_cat"] = a["col"].isin(set(schema.categorical_idx))
    a["sd"] = a["col"].map(sds).fillna(1.0)

    truth = voted_truth(a[["worker", "row", "col", "value"]], schema)
    workers, w_inv = np.unique(a["worker"].to_numpy(np.int64), return_inverse=True)
    weights = weight_rule(np.bincount(w_inv).astype(float))

    prev_loss = None
    for _ in range(max_iter):
        m = a.merge(truth, on=["row", "col"])
        is_cat = m["is_cat"].to_numpy()
        err = np.where(
            is_cat,
            (m["value"].round() != m["truth"].round()).astype(float),
            ((m["value"] - m["truth"]) / m["sd"]) ** 2,
        )
        loss_u = np.bincount(w_inv, weights=err, minlength=len(workers)) + _EPS
        a["w"] = weights(loss_u)[w_inv]
        # Truth update: weighted vote / weighted mean.
        cat = a[a["is_cat"]].copy()
        cat["label"] = cat["value"].round()
        tv = (
            cat.groupby(["row", "col", "label"])["w"].sum().reset_index()
            .sort_values(["row", "col", "w", "label"], ascending=[True, True, False, True])
            .drop_duplicates(["row", "col"], keep="first")
            .rename(columns={"label": "truth"})[["row", "col", "truth"]]
        )
        cont = a[~a["is_cat"]]
        tc = (
            cont.assign(wv=cont["w"] * cont["value"])
            .groupby(["row", "col"])[["wv", "w"]]
            .sum()
            .reset_index()
        )
        tc["truth"] = tc["wv"] / np.maximum(tc["w"], _EPS)
        truth = pd.concat([tv, tc[["row", "col", "truth"]]], ignore_index=True)

        total = float(err.sum())
        if prev_loss is not None and abs(prev_loss - total) < _TOL * max(prev_loss, 1.0):
            break
        prev_loss = total
    return truth.sort_values(["row", "col"]).reset_index(drop=True)


def crh_weights(n_u: np.ndarray):
    """w_u = log(Σ loss / loss_u), floored at a tiny positive weight; n_u unused."""
    return lambda loss_u: np.maximum(np.log(loss_u.sum() / loss_u), _EPS)


def crh(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    return weighted_truth_discovery(answers, schema, crh_weights, max_iter=_MAX_ITER)
