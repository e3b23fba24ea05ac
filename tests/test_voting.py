"""MV / Median: pandas vs Spark SQL vs DuckDB oracle."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.voting import (
    majority_vote,
    majority_vote_spark,
    median_vote,
    median_vote_spark,
    mv_median,
    mv_median_spark,
)
from repro.crowd.schema import CATEGORICAL, CONTINUOUS, ColumnSpec, TableSchema
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def hand_schema():
    return TableSchema(
        columns=(
            ColumnSpec("a", CATEGORICAL, n_labels=4),
            ColumnSpec("x", CONTINUOUS),
        )
    )


@pytest.fixture(scope="module")
def hand_answers():
    return pd.DataFrame(
        {
            "worker": [0, 1, 2, 3, 0, 1, 2],
            "row": [0, 0, 0, 0, 0, 0, 0],
            "col": [0, 0, 0, 0, 1, 1, 1],
            "value": [2.0, 2.0, 1.0, 3.0, 10.0, 20.0, 90.0],
        }
    )


class TestPandasKernels:
    def test_mv_picks_mode(self, hand_answers, hand_schema):
        out = majority_vote(hand_answers, hand_schema)
        assert out.loc[0, "truth"] == 2.0

    def test_mv_tie_breaks_to_smallest_label(self, hand_schema):
        a = pd.DataFrame(
            {"worker": [0, 1], "row": [0, 0], "col": [0, 0], "value": [3.0, 1.0]}
        )
        out = majority_vote(a, hand_schema)
        assert out.loc[0, "truth"] == 1.0

    def test_median(self, hand_answers, hand_schema):
        out = median_vote(hand_answers, hand_schema)
        assert out.loc[0, "truth"] == 20.0

    def test_mv_median_combines(self, hand_answers, hand_schema):
        out = mv_median(hand_answers, hand_schema)
        assert len(out) == 2
        assert set(out["col"]) == {0, 1}

    def test_empty_inputs(self, hand_schema):
        empty = pd.DataFrame(columns=["worker", "row", "col", "value"])
        assert majority_vote(empty, hand_schema).empty
        assert median_vote(empty, hand_schema).empty
        assert mv_median(empty, hand_schema).empty


class TestSparkMatchesPandas:
    def test_mv(self, spark, tiny_ds):
        a_df, _ = tiny_ds.to_spark(spark)
        sp = (
            majority_vote_spark(a_df, tiny_ds.schema)
            .toPandas()
            .sort_values(["row", "col"])
            .reset_index(drop=True)
        )
        pdk = majority_vote(tiny_ds.answers, tiny_ds.schema)
        pd.testing.assert_frame_equal(sp, pdk, check_dtype=False)

    def test_median(self, spark, tiny_ds):
        a_df, _ = tiny_ds.to_spark(spark)
        sp = (
            median_vote_spark(a_df, tiny_ds.schema)
            .toPandas()
            .sort_values(["row", "col"])
            .reset_index(drop=True)
        )
        pdk = median_vote(tiny_ds.answers, tiny_ds.schema)
        pd.testing.assert_frame_equal(sp, pdk, check_dtype=False)


def _mv_sql(schema):
    """Majority vote per categorical cell, ties to the smaller label."""
    cats = ",".join(str(j) for j in schema.categorical_idx)
    return f"""
            WITH counts AS (
                SELECT row, col, round(value) AS label, count(*) AS n
                FROM answers WHERE col IN ({cats})
                GROUP BY row, col, round(value)
            ), ranked AS (
                SELECT row, col, label,
                       row_number() OVER (PARTITION BY row, col
                                          ORDER BY n DESC, label ASC) AS rk
                FROM counts
            )
            SELECT row, col, CAST(label AS DOUBLE) AS truth
            FROM ranked WHERE rk = 1
    """


class TestOracle:
    def test_mv_spark_oracle(self, spark, tiny_ds):
        a_df, _ = tiny_ds.to_spark(spark)
        assert_equivalent(
            majority_vote_spark(a_df, tiny_ds.schema),
            _mv_sql(tiny_ds.schema),
            answers=tiny_ds.answers,
        )

    def test_oracle_catches_wrong_result(self, spark, tiny_ds):
        a_df, _ = tiny_ds.to_spark(spark)
        wrong = majority_vote_spark(a_df, tiny_ds.schema).withColumn("truth", F.col("truth") + 1)
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, _mv_sql(tiny_ds.schema), answers=tiny_ds.answers)

    def test_median_spark_oracle(self, spark, tiny_ds):
        a_df, _ = tiny_ds.to_spark(spark)
        conts = ",".join(str(j) for j in tiny_ds.schema.continuous_idx)
        assert_equivalent(
            median_vote_spark(a_df, tiny_ds.schema),
            f"""
            SELECT row, col, median(value) AS truth
            FROM answers WHERE col IN ({conts})
            GROUP BY row, col
            """,
            answers=tiny_ds.answers,
        )

    def test_mv_median_union_oracle(self, spark, tiny_ds):
        a_df, _ = tiny_ds.to_spark(spark)
        conts = ",".join(str(j) for j in tiny_ds.schema.continuous_idx)
        assert_equivalent(
            mv_median_spark(a_df, tiny_ds.schema),
            _mv_sql(tiny_ds.schema) + f"""
            UNION ALL
            SELECT row, col, median(value) AS truth
            FROM answers WHERE col IN ({conts})
            GROUP BY row, col
            """,
            answers=tiny_ds.answers,
        )
