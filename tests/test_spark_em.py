"""Spark EM engine: agreement with the numpy kernel and dataflow sanity."""
from dataclasses import replace

import numpy as np
import pytest

import pandas as pd

from repro.core.em import estep_categorical_column, tcrowd_em
from repro.core.spark_em import _estep_column_kernel, spark_estep, tcrowd_em_spark
from repro.crowd.metrics import error_rate, mnad


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


    def test_regularisers_forwarded(self, spark, tiny_ds):
        answers_df, _ = tiny_ds.to_spark(spark)
        kw = dict(max_iter=12, reg_alpha=0.7, reg_phi=1.3)
        sp = tcrowd_em_spark(answers_df, tiny_ds.schema, **kw)
        ref = tcrowd_em(tiny_ds.answers, tiny_ds.schema, **kw)
        default = tcrowd_em(tiny_ds.answers, tiny_ds.schema, max_iter=12)
        assert np.abs(ref.state.ln_phi - default.state.ln_phi).max() > 1e-3
        sp_truth = sp.truth.toPandas().sort_values(["row", "col"]).reset_index(drop=True)
        np.testing.assert_allclose(
            sp_truth["truth"].to_numpy(), ref.truth["truth"].to_numpy(), rtol=0, atol=1e-6
        )
        for name in ("ln_alpha", "ln_beta", "ln_phi"):
            np.testing.assert_allclose(
                getattr(sp.state, name), getattr(ref.state, name), rtol=0, atol=1e-6
            )
        np.testing.assert_allclose(sp.q_trace, ref.q_trace, rtol=1e-9)

    def test_single_answer_column_agrees(self, spark, tiny_ds):
        """A continuous column with one answer starts both engines at the
        same ln β (the shared initialisation)."""
        a = tiny_ds.answers
        cut = a.drop(a.index[a["col"] == 3][1:])
        answers_df, _ = replace(tiny_ds, answers=cut).to_spark(spark)
        sp = tcrowd_em_spark(answers_df, tiny_ds.schema, max_iter=12)
        ref = tcrowd_em(cut, tiny_ds.schema, max_iter=12)
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


class TestEstepKernel:
    """The ``applyInPandas`` kernel, called on a pandas frame directly."""

    def _group(self, rows, values, v, n_labels):
        n = len(rows)
        return pd.DataFrame({
            "row": rows, "col": 0, "worker": np.arange(n), "value": values,
            "ln_alpha": np.log(v), "ln_beta": 0.0, "ln_phi": 0.0, "is_cat": True,
            "n_labels": float(n_labels), "mu0": 0.0, "var0": 1.0,
        })

    @pytest.mark.parametrize("seed", range(5))
    def test_categorical_cell_columns_match_posteriors(self, seed):
        g = np.random.default_rng(seed)
        n, n_labels = 60, 5
        rows = g.integers(0, 15, n)
        values = g.integers(0, 3, n).astype(np.float64)
        v = g.choice([0.5, 1.0, 2.0], n)  # repeated variances make exact ties
        # A cell of two equally trusted answers: a tie the lower label wins.
        rows[:2], values[:2], v[:2] = 99, [3.0, 1.0], 1.0
        out = _estep_column_kernel(1.0)(self._group(rows, values, v, n_labels))
        order = np.lexsort((np.arange(n), rows))  # the kernel's (row, worker) sort
        cells, w, _ = estep_categorical_column(rows[order], values[order], v[order],
                                               n_labels, 1.0)
        at = {r: i for i, r in enumerate(cells.rows.tolist())}
        t_hat, ent = cells.truth(), cells.entropy()
        assert out["t_hat"].tolist() == [t_hat[at[r]] for r in rows[order]]
        assert t_hat[at[99]] == 1.0
        np.testing.assert_allclose(
            out["t_entropy"], [ent[at[r]] for r in rows[order]], rtol=0, atol=1e-12
        )
        assert out["w"].tolist() == w.tolist()


class TestSparkDataflow:
    def test_estep_emits_one_row_per_answer(self, spark, tiny_ds, spark_result):
        answers_df, _ = tiny_ds.to_spark(spark)
        from repro.core.em import column_moments, init_params

        priors, st = init_params(
            column_moments(tiny_ds.answers, tiny_ds.schema), tiny_ds.schema, 30, 20
        )
        out = spark_estep(answers_df, st, tiny_ds.schema, priors, 1.0)
        assert out.count() == len(tiny_ds.answers)

    def test_cells_relation_consistent(self, spark_result, tiny_ds):
        cells = (
            spark_result.cells.select("row", "col", "t_hat").distinct().toPandas()
        )
        assert len(cells) == tiny_ds.n_cells

    def test_quality_in_unit_interval(self, spark_result):
        assert ((spark_result.worker_quality > 0) & (spark_result.worker_quality < 1)).all()

    def test_q_trace_progresses(self, spark_result):
        assert spark_result.q_trace[-1] >= spark_result.q_trace[0]
