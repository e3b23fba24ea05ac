"""CRH baseline [18] — heterogeneous truth discovery.

CRH minimises Σ_u w_u Σ_cells d(a^u_ij, T̂_ij) with the entropy-style
regulariser that yields the closed-form weight update

    w_u = log( Σ_{u'} loss_{u'} / loss_u ).

Distances follow the CRH paper: 0-1 loss for categorical columns and the
squared distance normalised by the column's answer std for continuous
columns. Truth updates are weighted votes (categorical) and weighted means
(continuous). Initialisation is MV/median.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema
from .voting import mv_median

_EPS = 1e-9


def _column_sd(answers: pd.DataFrame, schema: TableSchema) -> dict[int, float]:
    sds = {}
    for j in schema.continuous_idx:
        v = answers.loc[answers["col"] == j, "value"]
        sds[j] = max(float(v.std(ddof=0)), _EPS)
    return sds


def crh(
    answers: pd.DataFrame,
    schema: TableSchema,
    *,
    max_iter: int = 20,
    tol: float = 1e-6,
) -> pd.DataFrame:
    a = answers.copy()
    cat_cols = set(schema.categorical_idx)
    sds = _column_sd(a, schema)
    a["is_cat"] = a["col"].isin(cat_cols)
    a["sd"] = a["col"].map(sds).fillna(1.0)

    truth = mv_median(a[["worker", "row", "col", "value"]], schema)
    workers, w_inv = np.unique(a["worker"].to_numpy(np.int64), return_inverse=True)
    weights = np.ones(len(workers))

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
        weights = np.log(loss_u.sum() / loss_u)
        weights = np.maximum(weights, _EPS)

        a["w"] = weights[w_inv]
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
        if prev_loss is not None and abs(prev_loss - total) < tol * max(prev_loss, 1.0):
            break
        prev_loss = total
    return truth.sort_values(["row", "col"]).reset_index(drop=True)
