"""Registry of truth-inference methods evaluated in Table 7.

Each entry maps the paper's method name to a callable
``fn(answers: pd.DataFrame, schema: TableSchema) -> (row, col, truth)``.
``TC-onlyCate``/``TC-onlyCont`` are the constrained T-Crowd variants of
§6.2: the same EM restricted to one datatype's columns (original column
indices preserved, so metrics line up).
"""
from __future__ import annotations

import pandas as pd

from ..baselines.catd import catd
from ..baselines.crh import crh
from ..baselines.ds import dawid_skene, zencrowd
from ..baselines.glad import glad
from ..baselines.gtm import gtm
from ..baselines.voting import majority_vote, median_vote
from ..core.em import tcrowd_em
from ..crowd.schema import TableSchema, restrict_answers, validate_answers


def tcrowd(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    return tcrowd_em(answers, schema).truth


def tcrowd_only_cate(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    validate_answers(answers, schema)
    sub = restrict_answers(answers, schema, "cat")
    if sub.empty:
        return pd.DataFrame(columns=["row", "col", "truth"])
    return tcrowd_em(sub, schema).truth


def tcrowd_only_cont(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    validate_answers(answers, schema)
    sub = restrict_answers(answers, schema, "cont")
    if sub.empty:
        return pd.DataFrame(columns=["row", "col", "truth"])
    return tcrowd_em(sub, schema).truth


#: Ordered as the rows of Table 7.
TABLE7_METHODS = {
    "T-Crowd": tcrowd,
    "CRH": crh,
    "CATD": catd,
    "Maj. Voting": majority_vote,
    "EM": dawid_skene,  # the paper labels per-column D&S as "EM"
    "GLAD": glad,
    "Zencrowd": zencrowd,
    "TC-onlyCate": tcrowd_only_cate,
    "Median": median_vote,
    "GTM": gtm,
    "TC-onlyCont": tcrowd_only_cont,
}

#: Which metric columns a method contributes to ("cat", "cont" or both).
METHOD_SCOPE = {
    "T-Crowd": ("cat", "cont"),
    "CRH": ("cat", "cont"),
    "CATD": ("cat", "cont"),
    "Maj. Voting": ("cat",),
    "EM": ("cat",),
    "GLAD": ("cat",),
    "Zencrowd": ("cat",),
    "TC-onlyCate": ("cat",),
    "Median": ("cont",),
    "GTM": ("cont",),
    "TC-onlyCont": ("cont",),
}
