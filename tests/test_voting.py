"""MV / Median: pandas kernels against hand cases and the DuckDB oracle."""
import pandas as pd
import pytest

from repro.baselines.voting import majority_vote, median_vote, mv_median
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
    def test_mv_oracle(self, tiny_ds):
        assert_equivalent(
            majority_vote(tiny_ds.answers, tiny_ds.schema),
            _mv_sql(tiny_ds.schema),
            answers=tiny_ds.answers,
        )

    def test_oracle_catches_wrong_result(self, tiny_ds):
        mv = majority_vote(tiny_ds.answers, tiny_ds.schema)
        wrong = mv.assign(truth=mv["truth"] + 1)
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, _mv_sql(tiny_ds.schema), answers=tiny_ds.answers)

    def test_median_oracle(self, tiny_ds):
        conts = ",".join(str(j) for j in tiny_ds.schema.continuous_idx)
        assert_equivalent(
            median_vote(tiny_ds.answers, tiny_ds.schema),
            f"""
            SELECT row, col, median(value) AS truth
            FROM answers WHERE col IN ({conts})
            GROUP BY row, col
            """,
            answers=tiny_ds.answers,
        )

    def test_mv_median_union_oracle(self, tiny_ds):
        conts = ",".join(str(j) for j in tiny_ds.schema.continuous_idx)
        assert_equivalent(
            mv_median(tiny_ds.answers, tiny_ds.schema),
            _mv_sql(tiny_ds.schema) + f"""
            UNION ALL
            SELECT row, col, median(value) AS truth
            FROM answers WHERE col IN ({conts})
            GROUP BY row, col
            """,
            answers=tiny_ds.answers,
        )
