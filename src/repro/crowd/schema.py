"""Tabular crowdsourcing data model (paper §3, Definitions 1–2).

A crowdsourced table has ``N`` entity rows and ``M`` typed columns; every
cell ``c_ij`` is a task. We carry three relations through the pipeline,
each with a fixed canonical schema so the Spark and numpy engines, the
baselines, and the DuckDB oracle all agree on shape:

* **answers** ``(worker: long, row: long, col: long, value: double)`` —
  one tuple per collected answer ``a^u_ij``. Categorical answers are label
  *codes* ``0..|L_j|-1`` stored as doubles (the label strings of the real
  datasets carry no information the algorithms use).
* **truth** ``(row: long, col: long, truth: double)`` — ground truth or an
  estimate ``T̂_ij``, one tuple per cell.
* **cells** — implicit: the cross product ``rows × columns``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import types as T

CATEGORICAL = "cat"
CONTINUOUS = "cont"

ANSWER_FIELDS = ["worker", "row", "col", "value"]
TRUTH_FIELDS = ["row", "col", "truth"]

ANSWER_SPARK_SCHEMA = T.StructType(
    [
        T.StructField("worker", T.LongType(), False),
        T.StructField("row", T.LongType(), False),
        T.StructField("col", T.LongType(), False),
        T.StructField("value", T.DoubleType(), False),
    ]
)

TRUTH_SPARK_SCHEMA = T.StructType(
    [
        T.StructField("row", T.LongType(), False),
        T.StructField("col", T.LongType(), False),
        T.StructField("truth", T.DoubleType(), False),
    ]
)


@dataclass(frozen=True)
class ColumnSpec:
    """One attribute of the crowdsourced table.

    ``n_labels`` is required for categorical columns (the label set is
    ``0..n_labels-1``); ``domain`` bounds continuous columns and is used by
    generators and by the z-score normalisation in some baselines.
    """

    name: str
    kind: str  # CATEGORICAL or CONTINUOUS
    n_labels: int | None = None
    domain: tuple[float, float] | None = None
    corr_group: str | None = None  # columns sharing a group get correlated errors

    def __post_init__(self) -> None:
        if self.kind not in (CATEGORICAL, CONTINUOUS):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind == CATEGORICAL and (self.n_labels is None or self.n_labels < 2):
            raise ValueError(f"categorical column {self.name!r} needs n_labels >= 2")
        if self.kind == CONTINUOUS and self.domain is None:
            object.__setattr__(self, "domain", (0.0, 1000.0))

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL


@dataclass(frozen=True)
class TableSchema:
    """Schema of the crowdsourced table: ordered typed columns."""

    columns: tuple[ColumnSpec, ...]
    name: str = "table"

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("schema needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {names}")

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def categorical_idx(self) -> list[int]:
        return [j for j, c in enumerate(self.columns) if c.is_categorical]

    @property
    def continuous_idx(self) -> list[int]:
        return [j for j, c in enumerate(self.columns) if not c.is_categorical]

    def column(self, j: int) -> ColumnSpec:
        return self.columns[j]


def restrict_answers(
    answers: pd.DataFrame, schema: TableSchema, kind: str
) -> pd.DataFrame:
    """Answers for only the columns of ``kind``; column indices unchanged."""
    keep = {j for j, c in enumerate(schema.columns) if c.kind == kind}
    return answers[answers["col"].isin(keep)].reset_index(drop=True)


def validate_answers(
    answers: pd.DataFrame,
    schema: TableSchema,
    *,
    n_rows: int | None = None,
    n_workers: int | None = None,
) -> None:
    """Reject malformed answers: raise ``ValueError`` naming the first one.

    Malformed is a NaN or infinite value; a categorical value that is not an
    integer label code in ``0..n_labels-1``; a negative worker, row or
    column id, or a column id ``>= n_cols``; a row id ``>= n_rows`` or a
    worker id ``>= n_workers``, for each bound given; or a second answer of
    a worker to the same cell, where the first such answer is named.
    """
    worker, row, col, value = (
        answers[f].to_numpy(np.float64) for f in ("worker", "row", "col", "value")
    )
    bad_id = ~((worker >= 0) & (row >= 0) & (col >= 0) & (col < schema.n_cols))
    too_big = (row >= (np.inf if n_rows is None else n_rows)) | (
        worker >= (np.inf if n_workers is None else n_workers)
    )
    n_labels = np.array([c.n_labels or 0 for c in schema.columns], dtype=np.float64)
    labels = n_labels[np.where(bad_id, 0, col).astype(np.int64)]
    finite = np.isfinite(value)
    bad_label = (labels > 0) & ~((value >= 0) & (value < labels) & (value == np.round(value)))
    bad = bad_id | too_big | ~finite | bad_label
    if bad.any():
        i = int(np.argmax(bad))
        reason = (
            "negative id or column out of range" if bad_id[i]
            else f"row or worker id out of range (n_rows={n_rows}, n_workers={n_workers})"
            if too_big[i]
            else "non-finite value" if not finite[i]
            else f"not a label code 0..{int(labels[i]) - 1}"
        )
    else:
        # A stable sort on the ids as they are (no combined key to overflow)
        # keeps equal (worker, row, col) in answer order.
        ids = [answers[f].to_numpy() for f in ("col", "row", "worker")]
        order = np.lexsort(ids)
        same = np.logical_and.reduce([np.diff(x[order]) == 0 for x in ids])
        if not same.any():
            return
        dup = order[1:][same]
        k = int(np.argmin(dup))
        i = int(dup[k])
        reason = f"duplicate (worker, row, col) of position {int(order[:-1][same][k])}"
    raise ValueError(
        f"malformed answer at position {i} (worker={answers['worker'].iloc[i]}, "
        f"row={answers['row'].iloc[i]}, col={answers['col'].iloc[i]}, "
        f"value={answers['value'].iloc[i]}): {reason}"
    )


@dataclass
class CrowdDataset:
    """A generated dataset: schema + hidden ground truth + collected answers.

    ``worker_phi`` is the *hidden* per-worker inherent variance used by the
    generator (answer simulator) — evaluation code may compare estimated
    worker quality against it, truth-inference code must not read it.
    """

    schema: TableSchema
    n_rows: int
    truth: pd.DataFrame  # TRUTH_FIELDS
    answers: pd.DataFrame  # ANSWER_FIELDS
    worker_phi: pd.Series = field(repr=False, default=None)  # index: worker id
    row_alpha: pd.Series = field(repr=False, default=None)
    col_beta: pd.Series = field(repr=False, default=None)

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.schema.n_cols

    @property
    def n_workers(self) -> int:
        return int(self.answers["worker"].nunique())

    def to_spark(self, spark):
        """(answers_df, truth_df) as Spark DataFrames with canonical schemas."""
        a = spark.createDataFrame(
            self.answers[ANSWER_FIELDS].astype(
                {"worker": "int64", "row": "int64", "col": "int64", "value": "float64"}
            ),
            schema=ANSWER_SPARK_SCHEMA,
        )
        t = spark.createDataFrame(
            self.truth[TRUTH_FIELDS].astype(
                {"row": "int64", "col": "int64", "truth": "float64"}
            ),
            schema=TRUTH_SPARK_SCHEMA,
        )
        return a, t
