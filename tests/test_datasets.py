"""Tests for the dataset generators (Table 6 shapes, §6.5 generator, noise)."""
import numpy as np
import pandas as pd
import pytest

from repro.crowd import datasets as D
from repro.crowd.metrics import error_rate, mnad
from repro.crowd.schema import CATEGORICAL, CONTINUOUS


@pytest.mark.parametrize(
    "gen,rows,cols,cells,apt",
    [
        (D.celebrity_like, 174, 7, 1218, 5),
        (D.restaurant_like, 203, 5, 1015, 4),
        (D.emotion_like, 100, 7, 700, 10),
    ],
)
class TestTable6Shapes:
    def test_shape_matches_paper(self, gen, rows, cols, cells, apt):
        ds = gen()
        assert ds.n_rows == rows
        assert ds.schema.n_cols == cols
        assert ds.n_cells == cells
        assert len(ds.answers) / ds.n_cells == pytest.approx(apt)

    def test_every_cell_answered(self, gen, rows, cols, cells, apt):
        ds = gen()
        assert ds.answers.groupby(["row", "col"]).size().min() >= 1
        assert ds.answers[["row", "col"]].drop_duplicates().shape[0] == cells

    def test_workers_answer_whole_rows(self, gen, rows, cols, cells, apt):
        # HIT layout: a (worker, row) pair has answers for every column.
        ds = gen()
        per_pair = ds.answers.groupby(["worker", "row"]).size()
        assert (per_pair == cols).all()


class TestSchemas:
    def test_celebrity_type_mix(self):
        s = D.celebrity_schema()
        assert len(s.categorical_idx) == 3
        assert len(s.continuous_idx) == 4

    def test_restaurant_type_mix(self):
        s = D.restaurant_schema()
        assert len(s.categorical_idx) == 3
        assert len(s.continuous_idx) == 2

    def test_restaurant_span_correlation_group(self):
        s = D.restaurant_schema()
        groups = [c.corr_group for c in s.columns if not c.is_categorical]
        assert groups == ["span", "span"]

    def test_emotion_all_continuous(self):
        s = D.emotion_schema()
        assert len(s.continuous_idx) == 7
        assert s.categorical_idx == []


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = D.restaurant_like(seed=42).answers
        b = D.restaurant_like(seed=42).answers
        pd.testing.assert_frame_equal(a, b)

    def test_different_seed_different_data(self):
        a = D.restaurant_like(seed=1).answers
        b = D.restaurant_like(seed=2).answers
        assert not a["value"].equals(b["value"])


class TestSyntheticTable:
    def test_default_shape(self):
        ds = D.synthetic_table(seed=0)
        assert ds.n_rows == 100
        assert ds.schema.n_cols == 10
        assert len(ds.schema.categorical_idx) == 5

    @pytest.mark.parametrize("ratio,expected_cat", [(0.0, 0), (0.3, 3), (1.0, 10)])
    def test_cat_ratio(self, ratio, expected_cat):
        ds = D.synthetic_table(cat_ratio=ratio, seed=1)
        assert len(ds.schema.categorical_idx) == expected_cat

    def test_label_counts_in_range(self):
        s = D.synthetic_schema(20, 1.0, seed=3)
        for c in s.columns:
            assert 2 <= c.n_labels <= 10

    def test_difficulty_scaling(self):
        easy = D.synthetic_table(mean_difficulty=0.5, seed=5)
        hard = D.synthetic_table(mean_difficulty=3.0, seed=5)
        assert hard.row_alpha.mean() == pytest.approx(6 * easy.row_alpha.mean(), rel=1e-6)

    def test_harder_means_worse_mv(self):
        from repro.baselines.voting import mv_median

        easy = D.synthetic_table(mean_difficulty=0.5, seed=5)
        hard = D.synthetic_table(mean_difficulty=3.0, seed=5)
        er_easy = error_rate(mv_median(easy.answers, easy.schema), easy.truth, easy.schema)
        er_hard = error_rate(mv_median(hard.answers, hard.schema), hard.truth, hard.schema)
        assert er_hard > er_easy


class TestNoiseInjector:
    def test_gamma_zero_is_identity(self):
        ds = D.restaurant_like(seed=3)
        noisy = D.add_noise(ds, gamma=0.0, seed=1)
        pd.testing.assert_frame_equal(ds.answers, noisy.answers)

    def test_gamma_perturbs_roughly_gamma_fraction(self):
        ds = D.restaurant_like(seed=3)
        noisy = D.add_noise(ds, gamma=0.3, seed=1)
        changed = (ds.answers["value"] != noisy.answers["value"]).mean()
        # sampling with replacement → ≈ 1 - exp(-γ) distinct, minus no-op draws
        assert 0.1 < changed < 0.35

    def test_truth_unchanged(self):
        ds = D.restaurant_like(seed=3)
        noisy = D.add_noise(ds, gamma=0.4, seed=1)
        pd.testing.assert_frame_equal(ds.truth, noisy.truth)

    def test_categorical_stays_in_domain(self):
        ds = D.restaurant_like(seed=3)
        noisy = D.add_noise(ds, gamma=0.4, seed=1)
        for j in ds.schema.categorical_idx:
            vals = noisy.answers.loc[noisy.answers["col"] == j, "value"]
            assert vals.round().between(0, ds.schema.column(j).n_labels - 1).all()

    def test_noise_degrades_mv_error(self):
        from repro.baselines.voting import mv_median

        ds = D.restaurant_like(seed=3)
        noisy = D.add_noise(ds, gamma=0.4, seed=1)
        er0 = error_rate(mv_median(ds.answers, ds.schema), ds.truth, ds.schema)
        er1 = error_rate(mv_median(noisy.answers, noisy.schema), ds.truth, ds.schema)
        assert er1 > er0


class TestGeneratedDataSanity:
    def test_continuous_answers_near_truth_for_good_workers(self, tiny_ds):
        # The best-quartile workers' normalised error should be far below the
        # worst-quartile workers'.
        merged = tiny_ds.answers.merge(tiny_ds.truth, on=["row", "col"])
        cont = merged[merged["col"].isin(tiny_ds.schema.continuous_idx)].copy()
        cont["abserr"] = (cont["value"] - cont["truth"]).abs()
        per_worker = cont.groupby("worker")["abserr"].mean()
        phi = tiny_ds.worker_phi
        good = per_worker[phi[per_worker.index] < phi.quantile(0.25)].mean()
        bad = per_worker[phi[per_worker.index] > phi.quantile(0.75)].mean()
        assert good < bad

    def test_spark_roundtrip_counts(self, spark, tiny_ds):
        a, t = tiny_ds.to_spark(spark)
        from repro.harness.table6 import dataset_stats_spark

        row = dataset_stats_spark(a).first()
        assert row["rows"] == 30
        assert row["columns"] == 4
        assert row["cells"] == 120
        assert row["ans_per_task"] == pytest.approx(3.0)
