"""Tests for the worker pool and the answer simulator (Eqs. 1–3)."""
import numpy as np
import pytest

from repro.crowd import datasets as D
from repro.crowd import workers
from repro.crowd.workers import default_beta, make_pool, simulate_answers


class TestMakePool:
    def test_sizes_and_types(self):
        p = make_pool(50, seed=0)
        assert p.n_workers == 50
        assert p.phi.shape == (50,)
        assert p.is_spammer.dtype == bool

    def test_phi_positive(self):
        assert (make_pool(100, seed=1).phi > 0).all()

    def test_spammer_fraction_roughly_respected(self):
        p = make_pool(2000, seed=2)  # SPAMMER_FRAC = 0.1
        assert 0.06 < p.is_spammer.mean() < 0.14

    def test_long_tail(self):
        # lognormal(σ=1.2): mean well above median.
        phi = make_pool(5000, seed=3).phi
        assert phi.mean() > 1.5 * np.median(phi)


class TestDefaultBeta:
    def test_categorical_is_one(self):
        s = D.restaurant_schema()
        beta = default_beta(s)
        for j in s.categorical_idx:
            assert beta[j] == 1.0

    def test_continuous_scales_with_domain(self):
        s = D.celebrity_schema()
        beta = default_beta(s)
        widths = {
            j: s.column(j).domain[1] - s.column(j).domain[0]
            for j in s.continuous_idx
        }
        js = sorted(widths, key=widths.get)
        assert beta[js[0]] <= beta[js[-1]]


class TestSimulateAnswers:
    def _small(self, **kw):
        schema = D.restaurant_schema()
        g = np.random.default_rng(0)
        truth = D._uniform_truth(schema, 50, g)
        pool = make_pool(30, seed=1)
        return schema, truth, pool, kw

    def test_n_per_task_respected(self):
        schema, truth, pool, _ = self._small()
        ds = simulate_answers(schema, truth, pool, n_per_task=4, seed=2)
        counts = ds.answers.groupby(["row", "col"]).size()
        assert (counts == 4).all()

    def test_distinct_workers_per_task(self):
        schema, truth, pool, _ = self._small()
        ds = simulate_answers(schema, truth, pool, n_per_task=4, seed=2)
        dupes = ds.answers.duplicated(["worker", "row", "col"]).sum()
        assert dupes == 0

    def test_participation_skew_concentrates_answers(self, monkeypatch):
        schema, truth, pool, _ = self._small()
        monkeypatch.setattr(workers, "PARTICIPATION_SKEW", 0.0)
        flat = simulate_answers(schema, truth, pool, n_per_task=4, seed=2)
        monkeypatch.setattr(workers, "PARTICIPATION_SKEW", 2.0)
        skew = simulate_answers(schema, truth, pool, n_per_task=4, seed=2)
        top_flat = flat.answers["worker"].value_counts().iloc[0]
        top_skew = skew.answers["worker"].value_counts().iloc[0]
        assert top_skew > top_flat

    def test_span_errors_positively_correlated(self, restaurant_ds):
        # §6.4.3: start/end target errors correlate within (worker, row).
        m = restaurant_ds.answers.merge(restaurant_ds.truth, on=["row", "col"])
        cont = m[m["col"].isin([3, 4])].copy()
        cont["err"] = cont["value"] - cont["truth"]
        grid = cont.pivot_table(
            index=["worker", "row"], columns="col", values="err"
        ).dropna()
        r = np.corrcoef(grid[3], grid[4])[0, 1]
        # Spammers' uniform answers dilute the Pearson r; positive and
        # clearly non-zero is what the structure-aware policy needs.
        assert r > 0.08

    def test_categorical_accuracy_tracks_quality(self):
        schema, truth, pool, _ = self._small()
        ds = simulate_answers(schema, truth, pool, n_per_task=4, seed=2)
        m = ds.answers.merge(ds.truth, on=["row", "col"])
        cat = m[m["col"].isin(schema.categorical_idx)]
        acc = (
            (cat["value"].round() == cat["truth"].round())
            .groupby(cat["worker"])
            .mean()
        )
        phi = ds.worker_phi
        good = acc[phi[acc.index] < phi.quantile(0.3)].mean()
        bad = acc[phi[acc.index] > phi.quantile(0.7)].mean()
        assert good > bad
