"""Effectiveness measures of §6.2: Error Rate and MNAD.

* **Error Rate** — fraction of *categorical* cells whose estimated label
  differs from ground truth.
* **MNAD** — per continuous column, RMSE between estimate and truth divided
  by the column's ground-truth standard deviation; averaged over columns.

Both are pandas functions, used by the table harnesses, the online
simulator and the benchmark, and verified against DuckDB queries by the
oracle tests (tests/test_metrics.py).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .schema import TableSchema


def _merged(est: pd.DataFrame, truth: pd.DataFrame) -> pd.DataFrame:
    m = est.merge(truth, on=["row", "col"], suffixes=("_est", ""), how="inner")
    return m.rename(columns={"truth_est": "est"}) if "truth_est" in m else m


def error_rate(est: pd.DataFrame, truth: pd.DataFrame, schema: TableSchema) -> float:
    """Categorical mismatch rate. ``est``/``truth``: (row, col, truth)."""
    cat = set(schema.categorical_idx)
    if not cat:
        return float("nan")
    m = _merged(est, truth)
    m = m[m["col"].isin(cat)]
    if m.empty:
        return float("nan")
    return float((m["est"].round() != m["truth"].round()).mean())


def mnad(est: pd.DataFrame, truth: pd.DataFrame, schema: TableSchema) -> float:
    """Mean (over continuous columns) of RMSE / std(ground truth of column)."""
    cont = schema.continuous_idx
    if not cont:
        return float("nan")
    m = _merged(est, truth)
    vals = []
    for j in cont:
        mj = m[m["col"] == j]
        if mj.empty:
            continue
        rmse = float(np.sqrt(((mj["est"] - mj["truth"]) ** 2).mean()))
        sd = float(mj["truth"].std(ddof=0))
        vals.append(rmse / max(sd, 1e-12))
    return float(np.mean(vals)) if vals else float("nan")
