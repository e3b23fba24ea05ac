"""Spark EM engine: agreement with the numpy kernel and dataflow sanity."""
from dataclasses import replace

import numpy as np
import pytest

import pandas as pd

from repro.core.em import AnswerLayout, EMState, run_estep, tcrowd_em, truth_frame
from repro.core.spark_em import _STATS, _estep_kernel, spark_estep, tcrowd_em_spark
from repro.crowd.metrics import error_rate, mnad
from repro.crowd.schema import (
    CATEGORICAL,
    CONTINUOUS,
    ColumnSpec,
    TableSchema,
    restrict_answers,
)


@pytest.fixture(scope="module")
def spark_result(spark, tiny_ds):
    answers_df, _ = tiny_ds.to_spark(spark)
    return tcrowd_em_spark(answers_df, tiny_ds.schema, max_iter=12)


class TestSparkVsNumpy:
    def test_truth_agrees(self, spark, tiny_ds, spark_result):
        numpy_res = tcrowd_em(tiny_ds.answers, tiny_ds.schema, max_iter=12)
        sp = spark_result.truth.toPandas().sort_values(["row", "col"]).reset_index(drop=True)
        np_t = numpy_res.truth.sort_values(["row", "col"]).reset_index(drop=True)
        assert len(sp) == len(np_t)
        # Same cells, near-identical estimates (summation-order tolerance).
        np.testing.assert_array_equal(sp["row"].to_numpy(), np_t["row"].to_numpy())
        np.testing.assert_allclose(
            sp["truth"].to_numpy(), np_t["truth"].to_numpy(), rtol=1e-6, atol=1e-6
        )

    def test_state_agrees(self, tiny_ds, spark_result):
        numpy_res = tcrowd_em(tiny_ds.answers, tiny_ds.schema, max_iter=12)
        np.testing.assert_allclose(
            spark_result.state.ln_phi, numpy_res.state.ln_phi, atol=1e-5
        )
        np.testing.assert_allclose(
            spark_result.state.ln_beta, numpy_res.state.ln_beta, atol=1e-5
        )

    def test_metrics_agree(self, tiny_ds, spark_result):
        numpy_res = tcrowd_em(tiny_ds.answers, tiny_ds.schema, max_iter=12)
        sp_truth = spark_result.truth.toPandas()
        er_sp = error_rate(sp_truth, tiny_ds.truth, tiny_ds.schema)
        er_np = error_rate(numpy_res.truth, tiny_ds.truth, tiny_ds.schema)
        assert er_sp == pytest.approx(er_np, abs=1e-12)
        assert mnad(sp_truth, tiny_ds.truth, tiny_ds.schema) == pytest.approx(
            mnad(numpy_res.truth, tiny_ds.truth, tiny_ds.schema), rel=1e-6
        )

    def test_single_answer_column_agrees(self, spark, tiny_ds):
        """A continuous column with one answer starts both engines at the
        same ln β (the shared initialisation)."""
        a = tiny_ds.answers
        _assert_engines_agree(spark, tiny_ds, a.drop(a.index[a["col"] == 3][1:]))

    @pytest.mark.parametrize("kind", ["cat", "cont"])
    def test_one_kind_table_agrees(self, spark, tiny_ds, kind):
        """A table with no answers of the other kind (an all-categorical or
        all-continuous E-step)."""
        _assert_engines_agree(
            spark, tiny_ds, restrict_answers(tiny_ds.answers, tiny_ds.schema, kind)
        )


def _assert_engines_agree(spark, ds, answers):
    """Both engines on ``answers`` to ``ds``'s table: the same iteration
    count and cells, truth and state within 1e-6, and Q traces within a
    relative 1e-9."""
    answers_df, _ = replace(ds, answers=answers).to_spark(spark)
    sp = tcrowd_em_spark(answers_df, ds.schema, max_iter=12)
    ref = tcrowd_em(answers, ds.schema, max_iter=12)
    assert sp.n_iters == ref.n_iters
    sp_truth = sp.truth.toPandas()
    np.testing.assert_array_equal(sp_truth[["row", "col"]], ref.truth[["row", "col"]])
    np.testing.assert_allclose(
        sp_truth["truth"].to_numpy(), ref.truth["truth"].to_numpy(), rtol=0, atol=1e-6
    )
    for name in ("ln_alpha", "ln_beta", "ln_phi"):
        np.testing.assert_allclose(
            getattr(sp.state, name), getattr(ref.state, name), rtol=0, atol=1e-6
        )
    np.testing.assert_allclose(sp.q_trace, ref.q_trace, rtol=1e-9)


class TestMalformedAnswers:
    """The Spark engine rejects the malformed answers the numpy engine
    rejects, naming the first one."""

    @pytest.mark.parametrize("case", ["nan", "duplicate", "bad_label"])
    def test_rejected(self, spark, restaurant_ds, case):
        a = restaurant_ds.answers.copy()
        first = a.index[a["col"] == 3][0]
        if case == "nan":
            a.loc[first, "value"] = np.nan
        elif case == "duplicate":
            a = pd.concat([a, a.loc[[first]]], ignore_index=True)
        else:
            a.loc[a.index[a["col"] == 0][0], "value"] = 7.0  # column 0 has 5 labels
        answers_df, _ = replace(restaurant_ds, answers=a).to_spark(spark)
        with pytest.raises(Exception, match="malformed answer"):
            tcrowd_em_spark(answers_df, restaurant_ds.schema, max_iter=2)


class TestEstepKernel:
    """The ``applyInPandas`` kernel, called on a pandas group directly."""

    SCHEMA = TableSchema(columns=(
        ColumnSpec("c", CATEGORICAL, n_labels=5),
        ColumnSpec("x", CONTINUOUS, domain=(0.0, 10.0)),
    ))

    def _check(self, group, v, seed):
        """The kernel on the shuffled ``group`` gives what :func:`run_estep`
        gives on the group sorted by ``(row, worker)``. Each answer has its
        own worker, whose ``φ`` is the answer's variance ``v``."""
        state = EMState(np.zeros(100), np.zeros(2), np.log(v))
        priors = {1: (5.0, 4.0)}
        shuffled = group.sample(frac=1.0, random_state=seed)
        layout = AnswerLayout.build(
            group.sort_values(["row", "worker"]).reset_index(drop=True), self.SCHEMA
        )
        estimate, _, _, want = run_estep(layout, state, priors)
        out = _estep_kernel(state, self.SCHEMA, priors, False)(shuffled)
        assert list(out.columns) == list(_STATS)
        for k in _STATS:
            assert out[k].dtype == want[k].dtype, k
            assert out[k].tolist() == want[k].tolist(), k
        truth = _estep_kernel(state, self.SCHEMA, priors, True)(shuffled)
        pd.testing.assert_frame_equal(
            truth, truth_frame(estimate, self.SCHEMA.n_cols), check_exact=True
        )
        return truth

    @pytest.mark.parametrize("seed", range(5))
    def test_categorical_cell_columns_match_posteriors(self, seed):
        g = np.random.default_rng(seed)
        n = 60
        rows = g.integers(0, 15, n)
        values = g.integers(0, 3, n).astype(np.float64)
        v = g.choice([0.5, 1.0, 2.0], n)  # repeated variances make exact ties
        # A cell of two equally trusted answers: a tie the lower label wins.
        rows[:2], values[:2], v[:2] = 99, [3.0, 1.0], 1.0
        group = pd.DataFrame({"worker": np.arange(n), "row": rows, "col": 0, "value": values})
        truth = self._check(group, v, seed)
        assert truth.loc[truth["row"] == 99, "truth"].tolist() == [1.0]

    @pytest.mark.parametrize("seed", range(2))
    def test_continuous_group_matches_run_estep(self, seed):
        g = np.random.default_rng(seed)
        n = 40
        group = pd.DataFrame({
            "worker": np.arange(n), "row": g.integers(0, 12, n), "col": 1,
            "value": g.random(n) * 10.0,
        })
        self._check(group, g.choice([0.5, 1.0, 2.0], n), seed)


class TestSparkDataflow:
    def test_estep_emits_one_row_per_answer(self, spark, tiny_ds, spark_result):
        answers_df, _ = tiny_ds.to_spark(spark)
        from repro.core.em import column_moments, init_params

        layout = AnswerLayout.build(tiny_ds.answers, tiny_ds.schema)
        priors, st = init_params(column_moments(layout), tiny_ds.schema, 30, 20)
        out = spark_estep(answers_df, st, tiny_ds.schema, priors)
        assert out.count() == len(tiny_ds.answers)

    def test_cells_relation_consistent(self, spark_result, tiny_ds):
        """The truth relation has exactly one row per answered cell."""
        truth = spark_result.truth.toPandas()
        assert len(truth) == tiny_ds.n_cells
        assert not truth.duplicated(["row", "col"]).any()

    def test_quality_in_unit_interval(self, spark_result):
        assert ((spark_result.worker_quality > 0) & (spark_result.worker_quality < 1)).all()

    def test_q_trace_progresses(self, spark_result):
        assert spark_result.q_trace[-1] >= spark_result.q_trace[0]
