"""Unit tests for the tabular crowdsourcing data model."""
import numpy as np
import pandas as pd
import pytest

from repro.crowd.schema import (
    ANSWER_FIELDS,
    CATEGORICAL,
    CONTINUOUS,
    ColumnSpec,
    TableSchema,
    restrict_answers,
    validate_answers,
)


class TestColumnSpec:
    def test_categorical_ok(self):
        c = ColumnSpec("a", CATEGORICAL, n_labels=5)
        assert c.is_categorical and c.n_labels == 5

    def test_categorical_needs_labels(self):
        with pytest.raises(ValueError):
            ColumnSpec("a", CATEGORICAL)

    def test_categorical_needs_two_labels(self):
        with pytest.raises(ValueError):
            ColumnSpec("a", CATEGORICAL, n_labels=1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ColumnSpec("a", "weird")

    def test_continuous_default_domain(self):
        c = ColumnSpec("x", CONTINUOUS)
        assert c.domain == (0.0, 1000.0)
        assert not c.is_categorical

    def test_corr_group_default_none(self):
        assert ColumnSpec("x", CONTINUOUS).corr_group is None


class TestTableSchema:
    def _schema(self):
        return TableSchema(
            columns=(
                ColumnSpec("a", CATEGORICAL, n_labels=3),
                ColumnSpec("x", CONTINUOUS),
                ColumnSpec("b", CATEGORICAL, n_labels=4),
            )
        )

    def test_counts_and_indices(self):
        s = self._schema()
        assert s.n_cols == 3
        assert s.categorical_idx == [0, 2]
        assert s.continuous_idx == [1]

    def test_column_accessor(self):
        assert self._schema().column(1).name == "x"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TableSchema(columns=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TableSchema(
                columns=(
                    ColumnSpec("a", CONTINUOUS),
                    ColumnSpec("a", CONTINUOUS),
                )
            )


class TestRestrictAnswers:
    def test_keeps_original_indices(self):
        s = TableSchema(
            columns=(
                ColumnSpec("a", CATEGORICAL, n_labels=3),
                ColumnSpec("x", CONTINUOUS),
            )
        )
        a = pd.DataFrame(
            {"worker": [0, 0], "row": [0, 0], "col": [0, 1], "value": [1.0, 9.9]}
        )
        cat = restrict_answers(a, s, CATEGORICAL)
        cont = restrict_answers(a, s, CONTINUOUS)
        assert cat["col"].tolist() == [0]
        assert cont["col"].tolist() == [1]


class TestCrowdDataset:
    def test_shape_properties(self, tiny_ds):
        assert tiny_ds.n_cells == 30 * 4
        assert len(tiny_ds.answers) / tiny_ds.n_cells == pytest.approx(3.0)
        assert tiny_ds.n_workers <= 20

    def test_answer_fields(self, tiny_ds):
        assert list(tiny_ds.answers.columns) == ANSWER_FIELDS

    def test_truth_covers_all_cells(self, tiny_ds):
        assert len(tiny_ds.truth) == tiny_ds.n_cells
        assert not tiny_ds.truth.duplicated(["row", "col"]).any()

    def test_to_spark_schemas(self, spark, tiny_ds):
        a, t = tiny_ds.to_spark(spark)
        assert [f.name for f in a.schema.fields] == ["worker", "row", "col", "value"]
        assert [f.name for f in t.schema.fields] == ["row", "col", "truth"]
        assert a.count() == len(tiny_ds.answers)
        assert t.count() == len(tiny_ds.truth)

    def test_categorical_answers_are_valid_labels(self, tiny_ds):
        for j in tiny_ds.schema.categorical_idx:
            vals = tiny_ds.answers.loc[tiny_ds.answers["col"] == j, "value"]
            n = tiny_ds.schema.column(j).n_labels
            assert vals.round().between(0, n - 1).all()
            np.testing.assert_allclose(vals, vals.round())


class TestValidateAnswers:
    schema = TableSchema(
        columns=(ColumnSpec("a", CATEGORICAL, n_labels=3), ColumnSpec("x", CONTINUOUS))
    )
    sizes = {"n_rows": 2, "n_workers": 3}

    def _answers(self, field=None, value=None):
        """Three well-formed answers; ``field`` of the last is set to ``value``.
        Their ids fit ``sizes``, the smallest bounds that hold them."""
        a = pd.DataFrame(
            {"worker": [0, 1, 2], "row": [0, 0, 1], "col": [0, 1, 0], "value": [2.0, 17.5, 0.0]}
        )
        if field is not None:
            a[field] = a[field].astype(float)
            a.loc[2, field] = value
        return a

    def test_well_formed_passes(self):
        validate_answers(self._answers(), self.schema)
        validate_answers(self._answers(), self.schema, **self.sizes)

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("value", 3.0, "not a label code 0..2"),
            ("value", -1.0, "not a label code 0..2"),
            ("value", 0.5, "not a label code 0..2"),
            ("value", np.nan, "non-finite value"),
            ("value", np.inf, "non-finite value"),
            ("worker", -1, "negative id"),
            ("row", -1, "negative id"),
            ("col", -1, "column out of range"),
            ("col", 2, "column out of range"),
            ("row", 2, "row or worker id out of range"),
            ("worker", 3, "row or worker id out of range"),
        ],
    )
    def test_rejects_and_names_first_bad_answer(self, field, value, reason):
        a = self._answers(field, value)
        with pytest.raises(ValueError, match="position 2") as err:
            validate_answers(a, self.schema, **self.sizes)
        assert reason in str(err.value)

    def test_continuous_nan_rejected(self):
        a = self._answers()
        a.loc[1, "value"] = np.nan
        with pytest.raises(ValueError, match="position 1.*non-finite"):
            validate_answers(a, self.schema)

    def test_rejects_duplicate_answer(self):
        # Worker 1 answers cell (0, 0) at positions 1 and 3 and again at 4;
        # ids near 2**62 would overflow a combined int64 key.
        big = 2**62
        a = pd.DataFrame({
            "worker": [0, 1, big, 1, 1], "row": [0, 0, big, 0, 0],
            "col": [0, 0, 1, 0, 0], "value": [1.0, 2.0, 3.0, 0.0, 1.0],
        })
        with pytest.raises(ValueError, match=r"position 3 \(worker=1, row=0, col=0.*"
                           r"duplicate \(worker, row, col\) of position 1$"):
            validate_answers(a, self.schema)
        validate_answers(a.iloc[:3], self.schema)

    def test_generated_datasets_pass(self, tiny_ds, restaurant_ds):
        for ds in (tiny_ds, restaurant_ds):
            validate_answers(ds.answers, ds.schema)
