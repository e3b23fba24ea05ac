"""Quality-agnostic baselines: Majority Voting and Median (§2, §6.2).

Both are pandas kernels with the uniform baseline signature
``fn(answers, schema) -> (row, col, truth)``, verified against DuckDB
queries by the oracle tests (tests/test_voting.py). Each public entry
validates its answers once; the CRH/CATD loop, having validated, starts
from the unchecked :func:`voted_truth`.

Tie-breaking for MV is deterministic: smallest label code among the
modal labels, here and in the DuckDB oracle query.
"""
from __future__ import annotations

import pandas as pd

from ..crowd.schema import TableSchema, restrict_answers, validate_answers


def majority_vote(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """Per categorical cell: most frequent label, ties to smallest label."""
    validate_answers(answers, schema)
    return _majority_vote(answers, schema)


def median_vote(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """Per continuous cell: median of the answers."""
    validate_answers(answers, schema)
    return _median_vote(answers, schema)


def mv_median(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """The naive combined baseline: MV on categorical + median on continuous."""
    validate_answers(answers, schema)
    return voted_truth(answers, schema)


def voted_truth(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """:func:`mv_median` of answers the caller has validated already."""
    votes = (_majority_vote(answers, schema), _median_vote(answers, schema))
    parts = [p for p in votes if not p.empty]
    if not parts:
        return pd.DataFrame(columns=["row", "col", "truth"])
    return pd.concat(parts).sort_values(["row", "col"]).reset_index(drop=True)


def _majority_vote(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    cat = restrict_answers(answers, schema, "cat").copy()
    if cat.empty:
        return pd.DataFrame(columns=["row", "col", "truth"])
    cat["value"] = cat["value"].round()
    counts = (
        cat.groupby(["row", "col", "value"]).size().rename("n").reset_index()
    )
    counts = counts.sort_values(
        ["row", "col", "n", "value"], ascending=[True, True, False, True]
    )
    top = counts.drop_duplicates(["row", "col"], keep="first")
    return top.rename(columns={"value": "truth"})[["row", "col", "truth"]].reset_index(
        drop=True
    )


def _median_vote(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    cont = restrict_answers(answers, schema, "cont")
    if cont.empty:
        return pd.DataFrame(columns=["row", "col", "truth"])
    med = cont.groupby(["row", "col"])["value"].median().rename("truth").reset_index()
    return med[["row", "col", "truth"]]
