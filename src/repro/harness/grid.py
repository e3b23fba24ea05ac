"""The experiment grid as one Spark job (§6.2–§6.5).

Every evaluation of the paper is a grid of independent replicates: generated
tables × methods (Table 7, Figs. 7–10) or simulated crowds × policies
(Figs. 2 and 5). :func:`fan_out` runs one Spark task per grid point and
averages the replicates; :func:`score` is the per-method Error Rate / MNAD
loop a grid point of the truth-inference experiments runs.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from ..crowd.metrics import error_rate, mnad


def score(ds, methods: dict) -> pd.DataFrame:
    """``(method, error_rate, mnad)`` of each ``name -> fn(answers, schema)``
    on the dataset ``ds``."""
    recs = []
    for method, fn in methods.items():
        est = fn(ds.answers, ds.schema)
        recs.append({
            "method": method,
            "error_rate": error_rate(est, ds.truth, ds.schema),
            "mnad": mnad(est, ds.truth, ds.schema),
        })
    return pd.DataFrame(recs)


def fan_out(
    spark: SparkSession, specs: pd.DataFrame, run, out_ddl: str, replicate: str
) -> pd.DataFrame:
    """Run ``run(spec)`` once per row of ``specs``, each in its own Spark
    partition; ``spec`` is the row as a dict and ``run`` returns a frame
    with the columns of ``out_ddl``, including ``error_rate`` and ``mnad``.

    The spec's columns are put in front of each returned frame, and the
    metrics are averaged over the ``replicate`` column: one row per value
    of the other spec and ``run`` columns, in order of first appearance.
    """
    keys = list(specs.columns)

    def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
        spec = pdf.to_dict("records")[0]
        out = run(spec)
        for i, k in enumerate(keys):
            out.insert(i, k, spec[k])
        return out

    spec_df = spark.createDataFrame(specs)
    ddl = ", ".join(f"{f.name} {f.dataType.simpleString()}" for f in spec_df.schema)
    results = (
        # Range partitioning on the distinct specs gives each its own
        # partition; left to the shuffle default, adaptive execution merges
        # the tiny spec frame into one partition and the grid runs serially.
        spec_df.repartitionByRange(len(specs), *keys)
        .groupBy(*keys)
        .applyInPandas(kernel, f"{ddl}, {out_ddl}")
        .toPandas()
        # Sum the replicates in one order, whatever the partitioning.
        .sort_values(keys, kind="stable")
    )
    groups = [c for c in results.columns if c not in (replicate, "error_rate", "mnad")]
    return (
        results.groupby(groups, sort=False)[["error_rate", "mnad"]].mean().reset_index()
    )
