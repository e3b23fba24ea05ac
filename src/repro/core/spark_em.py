"""T-Crowd truth inference as a Spark DataFrame pipeline.

Only the E-step is Spark's. The rest of Algorithm 1 is the numpy engine's
(`repro.core.em`): one ``groupBy("col")`` aggregation gives the per-column
answer moments and the largest row and worker ids, from which
:func:`~repro.core.em.init_params` makes the priors and the starting
parameters; :func:`~repro.core.em.em_loop` then alternates

1. **E-step** (:func:`spark_estep`): given ``(α, β, φ)`` the cells are
   independent (§4.3), so ``groupBy("col").applyInPandas`` hands each
   column's answers ``(worker, row, col, value)`` to a kernel that runs the
   numpy engine's own :func:`~repro.core.em.run_estep` on them, with the
   parameters and priors captured in its closure. Inside the loop the
   kernel returns the seven per-answer statistics the M-step reads; the
   final call returns each cell's estimated truth instead;
2. **M-step**: the statistics are brought to the driver (they are
   ``O(|A|)``), split by kind once, and the tiny parameter vectors are
   optimised with the shared :func:`~repro.core.em.m_step` (the MLlib
   "cluster statistics + driver optimiser" pattern).

Because both engines share the initialisation, the loop, the E-step and the
M-step, they agree to float tolerance (the only divergence source is the
order of the answers, which sets the summation order);
tests/test_spark_em.py asserts this.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..crowd.schema import TRUTH_SPARK_SCHEMA, TableSchema, validate_answers
from .em import (
    MAX_ITER,
    AnswerLayout,
    EMState,
    em_loop,
    init_params,
    m_step,
    run_estep,
    split_by_kind,
    truth_frame,
    worker_quality,
)

# The M-step's per-answer statistics: name -> (numpy dtype, Spark SQL type).
_STATS = {
    "row": (np.int64, "long"), "col": (np.int64, "long"), "worker": (np.int64, "long"),
    "is_cat": (bool, "boolean"), "s": (np.float64, "double"), "w": (np.float64, "double"),
    "n_labels": (np.float64, "double"),
}
_STATS_SCHEMA = ", ".join(f"{k} {sql}" for k, (_, sql) in _STATS.items())


def _estep_kernel(state: EMState, schema: TableSchema, priors: dict, posteriors: bool):
    """Kernel for ``applyInPandas``: :func:`run_estep` over one column's
    answers, sorted by ``(row, worker)``. Returns the ``_STATS`` columns, one
    row per answer, or with ``posteriors`` the :func:`truth_frame` rows of
    the column's cells.

    Malformed answers raise :func:`validate_answers`' ``ValueError``. Every
    check can be made one column at a time, since a duplicate never spans two
    columns; the position it names counts within the column's sorted
    answers, while the ids it names are the table's."""

    def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(["row", "worker"], kind="stable").reset_index(drop=True)
        validate_answers(pdf, schema)
        estimate, _, _, stats = run_estep(
            AnswerLayout.build(pdf, schema), state, priors, posteriors=posteriors
        )
        if posteriors:
            return truth_frame(estimate, schema.n_cols)
        return pd.DataFrame({k: stats[k] for k in _STATS})

    return kernel


def spark_estep(
    answers: DataFrame,
    state: EMState,
    schema: TableSchema,
    priors: dict,
    *,
    posteriors: bool = False,
) -> DataFrame:
    """The E-step dataflow: one :func:`run_estep` per column."""
    kernel = _estep_kernel(state, schema, priors, posteriors)
    out_schema = TRUTH_SPARK_SCHEMA if posteriors else _STATS_SCHEMA
    return answers.groupBy("col").applyInPandas(kernel, out_schema)


@dataclass
class SparkEMResult:
    truth: DataFrame  # (row, col, truth) Spark DataFrame
    state: EMState
    worker_quality: np.ndarray
    n_iters: int
    converged: bool
    q_trace: list


def tcrowd_em_spark(
    answers: DataFrame,
    schema: TableSchema,
    *,
    max_iter: int = MAX_ITER,
) -> SparkEMResult:
    """Full T-Crowd EM with the E-step distributed via Spark (Algorithm 1)."""
    agg = (
        answers.groupBy("col")
        .agg(
            F.count("value").alias("n"), F.avg("value").alias("mean"),
            F.var_pop("value").alias("var"), F.max("row").alias("max_row"),
            F.max("worker").alias("max_worker"),
        )
        .toPandas()
    )
    moments = {int(r.col): (int(r.n), float(r.mean), float(r.var)) for r in agg.itertuples()}
    priors, state = init_params(
        moments, schema, int(agg["max_row"].max()) + 1, int(agg["max_worker"].max()) + 1
    )

    def step(st: EMState):
        pdf = spark_estep(answers, st, schema, priors).toPandas()
        stats = {k: pdf[k].to_numpy(dtype) for k, (dtype, _) in _STATS.items()}
        stats["by_kind"] = split_by_kind(stats)
        return m_step(stats, st)

    state, n_iters, converged, q_trace = em_loop(step, state, max_iter)
    truth = spark_estep(answers, state, schema, priors, posteriors=True)
    return SparkEMResult(
        truth=truth.orderBy("row", "col"),
        state=state,
        worker_quality=worker_quality(state),
        n_iters=n_iters,
        converged=converged,
        q_trace=q_trace,
    )
