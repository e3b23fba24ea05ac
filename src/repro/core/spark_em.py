"""T-Crowd truth inference as a Spark DataFrame pipeline.

Only the E-step is Spark's. The rest of Algorithm 1 is the numpy engine's
(`repro.core.em`): one ``groupBy("col")`` aggregation gives the per-column
answer moments and the largest row and worker ids, from which
:func:`~repro.core.em.init_params` makes the priors and the starting
parameters; :func:`~repro.core.em.em_loop` then alternates

1. **E-step** (:func:`spark_estep`): broadcast-join the answers
   ``(worker, row, col, value)`` with three *parameter dimension tables*
   (``α`` by row, ``β``+column metadata by col, ``φ`` by worker) and the
   per-column continuous priors — explicitly ``F.broadcast`` because the
   session fixture disables auto-broadcast — then
   ``groupBy("col").applyInPandas`` runs the *same* per-column kernels as
   the numpy engine, emitting one output row per answer, denormalised with
   its cell's posterior (``t_mu``, ``t_phi``, estimated truth, entropy);
   this relation *is* the M-step's sufficient-statistics table;
2. **M-step**: the statistics are brought to the driver (they are
   ``O(|A|)``) and the tiny parameter vectors are optimised with the shared
   :func:`~repro.core.em.m_step` (the MLlib "cluster statistics + driver
   optimiser" pattern).

Because both engines share the initialisation, the loop, the E-step kernels
and the M-step optimiser, they agree to float tolerance (the only divergence
source is summation order); tests/test_spark_em.py asserts this.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..crowd.schema import TableSchema
from .em import (
    EPS,
    GRAD_ITERS,
    MAX_ITER,
    REG_ALPHA,
    REG_PHI,
    TOL,
    EMState,
    em_loop,
    estep_categorical_column,
    estep_continuous_column,
    init_params,
    m_step,
    worker_quality,
)

_ESTEP_SCHEMA = T.StructType(
    [
        T.StructField("row", T.LongType()),
        T.StructField("col", T.LongType()),
        T.StructField("worker", T.LongType()),
        T.StructField("value", T.DoubleType()),
        T.StructField("is_cat", T.BooleanType()),
        T.StructField("n_labels", T.DoubleType()),
        T.StructField("s", T.DoubleType()),
        T.StructField("w", T.DoubleType()),
        T.StructField("t_hat", T.DoubleType()),
        T.StructField("t_mu", T.DoubleType()),
        T.StructField("t_phi", T.DoubleType()),
        T.StructField("t_entropy", T.DoubleType()),
    ]
)
# The M-step's per-answer statistics and their numpy dtypes.
_STATS = {
    "row": np.int64, "col": np.int64, "worker": np.int64, "is_cat": bool,
    "s": np.float64, "w": np.float64, "n_labels": np.float64,
}


def _estep_column_kernel(eps: float):
    """Kernel for ``applyInPandas``: E-step over one column's answers.

    The input group carries the joined parameter columns (ln_alpha, ln_beta,
    ln_phi, is_cat, n_labels, mu0, var0). Emits per-answer sufficient stats
    plus cell-level posterior columns (repeated per answer of the cell).
    """

    def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(["row", "worker"], kind="stable").reset_index(drop=True)
        rows = pdf["row"].to_numpy(np.int64)
        vals = pdf["value"].to_numpy(np.float64)
        v = np.exp(
            pdf["ln_alpha"].to_numpy() + pdf["ln_beta"].to_numpy() + pdf["ln_phi"].to_numpy()
        )
        out = pdf[["row", "col", "worker", "value"]].copy()
        is_cat = bool(pdf["is_cat"].iloc[0])
        out["is_cat"] = is_cat
        out["n_labels"] = pdf["n_labels"].iloc[0]
        if is_cat:
            n_labels = int(pdf["n_labels"].iloc[0])
            cells, w, _ = estep_categorical_column(rows, vals, v, n_labels, eps)
            pos = np.searchsorted(cells.rows, rows)
            out["s"] = 0.0
            out["w"] = w
            out["t_hat"] = cells.truth()[pos]
            out["t_mu"] = np.nan
            out["t_phi"] = np.nan
            out["t_entropy"] = cells.entropy()[pos]
        else:
            mu0 = float(pdf["mu0"].iloc[0])
            var0 = float(pdf["var0"].iloc[0])
            cell_rows, t_mu, t_phi, s = estep_continuous_column(rows, vals, v, mu0, var0)
            pos = np.searchsorted(cell_rows, rows)
            out["s"] = s
            out["w"] = 0.0
            out["t_hat"] = t_mu[pos]
            out["t_mu"] = t_mu[pos]
            out["t_phi"] = t_phi[pos]
            out["t_entropy"] = 0.5 * np.log(2.0 * np.pi * np.e * t_phi[pos])
        return out

    return kernel


def _param_frames(
    spark: SparkSession, state: EMState, schema: TableSchema, priors: dict
):
    alpha_df = spark.createDataFrame(
        pd.DataFrame({"row": np.arange(len(state.ln_alpha), dtype=np.int64),
                      "ln_alpha": state.ln_alpha})
    )
    beta_pdf = pd.DataFrame(
        {
            "col": np.arange(schema.n_cols, dtype=np.int64),
            "ln_beta": state.ln_beta,
            "is_cat": [c.is_categorical for c in schema.columns],
            "n_labels": [float(c.n_labels or 0) for c in schema.columns],
            "mu0": [float(priors.get(j, (0.0, 1.0))[0]) for j in range(schema.n_cols)],
            "var0": [float(priors.get(j, (0.0, 1.0))[1]) for j in range(schema.n_cols)],
        }
    )
    beta_df = spark.createDataFrame(beta_pdf)
    phi_df = spark.createDataFrame(
        pd.DataFrame({"worker": np.arange(len(state.ln_phi), dtype=np.int64),
                      "ln_phi": state.ln_phi})
    )
    return alpha_df, beta_df, phi_df


def spark_estep(
    answers: DataFrame, state: EMState, schema: TableSchema, priors: dict, eps: float
) -> DataFrame:
    """The E-step dataflow: join parameters, fan out per column."""
    spark = answers.sparkSession
    alpha_df, beta_df, phi_df = _param_frames(spark, state, schema, priors)
    joined = (
        answers.join(F.broadcast(alpha_df), "row")
        .join(F.broadcast(beta_df), "col")
        .join(F.broadcast(phi_df), "worker")
    )
    return joined.groupBy("col").applyInPandas(_estep_column_kernel(eps), _ESTEP_SCHEMA)


@dataclass
class SparkEMResult:
    truth: DataFrame  # (row, col, truth) Spark DataFrame
    cells: DataFrame  # full cell-state relation from the last E-step
    state: EMState
    worker_quality: np.ndarray
    n_iters: int
    converged: bool
    q_trace: list


def tcrowd_em_spark(
    answers: DataFrame,
    schema: TableSchema,
    *,
    eps: float = EPS,
    max_iter: int = MAX_ITER,
    tol: float = TOL,
    grad_iters: int = GRAD_ITERS,
    reg_alpha: float = REG_ALPHA,
    reg_phi: float = REG_PHI,
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
        pdf = spark_estep(answers, st, schema, priors, eps).select(*_STATS).toPandas()
        stats = {k: pdf[k].to_numpy(dtype) for k, dtype in _STATS.items()}
        return m_step(
            stats, st, eps, grad_iters=grad_iters, reg_alpha=reg_alpha, reg_phi=reg_phi,
        )

    state, n_iters, converged, q_trace = em_loop(step, state, max_iter, tol)
    cells = spark_estep(answers, state, schema, priors, eps)
    truth = (
        cells.select("row", "col", F.col("t_hat").alias("truth"))
        .distinct()
        .orderBy("row", "col")
    )
    return SparkEMResult(
        truth=truth,
        cells=cells,
        state=state,
        worker_quality=worker_quality(state, eps),
        n_iters=n_iters,
        converged=converged,
        q_trace=q_trace,
    )
