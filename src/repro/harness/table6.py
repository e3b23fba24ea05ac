"""Table 6 — statistics of the (simulated) real-world datasets.

Computes #Rows, #Columns, #Cells and #Answers-per-task of the three
generated datasets with Spark SQL over the canonical answers relation,
and prints them next to the paper's numbers. The aggregation is verified
against DuckDB in tests/test_harness.py (`TestTable6`).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..crowd import datasets

#: The paper's Table 6 rows.
PAPER_TABLE6 = pd.DataFrame(
    [
        {"dataset": "Celebrity", "rows": 174, "columns": 7, "cells": 1218, "ans_per_task": 5},
        {"dataset": "Restaurant", "rows": 203, "columns": 5, "cells": 1015, "ans_per_task": 4},
        {"dataset": "Emotion", "rows": 100, "columns": 7, "cells": 700, "ans_per_task": 10},
    ]
)


def dataset_stats_spark(answers: DataFrame) -> DataFrame:
    """One-row stats frame from the answers relation (Spark SQL)."""
    cells = answers.select("row", "col").distinct().count()
    return answers.agg(
        F.countDistinct("row").alias("rows"),
        F.countDistinct("col").alias("columns"),
        F.lit(cells).alias("cells"),
        (F.count("*") / F.lit(cells)).alias("ans_per_task"),
    )


def build_table6(spark: SparkSession) -> pd.DataFrame:
    """Generate the three datasets and compute their Table 6 statistics."""
    recs = []
    for name, gen in datasets.REAL_DATASETS.items():
        ds = gen(seed=datasets.BASE_SEED[name])
        a_df, _ = ds.to_spark(spark)
        row = dataset_stats_spark(a_df).first().asDict()
        row["dataset"] = name.capitalize()
        recs.append(row)
    out = pd.DataFrame(recs)[["dataset", "rows", "columns", "cells", "ans_per_task"]]
    return out


def format_table6(measured: pd.DataFrame) -> str:
    lines = ["Table 6 — dataset statistics (paper | measured)"]
    merged = PAPER_TABLE6.merge(measured, on="dataset", suffixes=(" (paper)", " (ours)"))
    lines.append(merged.to_string(index=False))
    return "\n".join(lines)
