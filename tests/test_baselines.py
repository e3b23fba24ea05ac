"""Tests for the iterative baselines: D&S, Zencrowd, GLAD, GTM, CRH, CATD."""
import json
import platform
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

import repro.baselines.catd as catd_module
from repro.baselines.catd import catd, catd_weights
from repro.baselines.crh import crh
from repro.baselines.ds import dawid_skene, zencrowd
from repro.baselines.glad import glad
from repro.baselines.gtm import gtm
from repro.baselines.voting import mv_median
from repro.crowd import datasets as D
from repro.crowd.metrics import error_rate, mnad
from repro.crowd.schema import CATEGORICAL, CONTINUOUS, ColumnSpec, TableSchema
from repro.harness.methods import TABLE7_METHODS


def _cat_cells(schema):
    return set(schema.categorical_idx)


@pytest.fixture(scope="module")
def easy_cat_ds():
    """Small categorical-heavy dataset with a clear quality spread."""
    return D.synthetic_table(
        n_rows=40, m=4, cat_ratio=1.0, n_workers=20, n_per_task=5, seed=21
    )


@pytest.fixture(scope="module")
def easy_cont_ds():
    return D.synthetic_table(
        n_rows=40, m=4, cat_ratio=0.0, n_workers=20, n_per_task=5, seed=22
    )


class TestOutputContracts:
    @pytest.mark.parametrize(
        "fn", [dawid_skene, zencrowd, glad], ids=["ds", "zencrowd", "glad"]
    )
    def test_categorical_methods_cover_cat_cells(self, fn, tiny_ds):
        out = fn(tiny_ds.answers, tiny_ds.schema)
        assert set(out["col"].unique()) == _cat_cells(tiny_ds.schema)
        n_cat_cells = 30 * len(tiny_ds.schema.categorical_idx)
        assert len(out) == n_cat_cells
        assert not out.duplicated(["row", "col"]).any()

    @pytest.mark.parametrize("fn", [gtm], ids=["gtm"])
    def test_continuous_methods_cover_cont_cells(self, fn, tiny_ds):
        out = fn(tiny_ds.answers, tiny_ds.schema)
        assert set(out["col"].unique()) == set(tiny_ds.schema.continuous_idx)

    @pytest.mark.parametrize("fn", [crh, catd], ids=["crh", "catd"])
    def test_heterogeneous_methods_cover_all_cells(self, fn, tiny_ds):
        out = fn(tiny_ds.answers, tiny_ds.schema)
        assert len(out) == tiny_ds.n_cells

    @pytest.mark.parametrize(
        "fn", [dawid_skene, zencrowd, glad, crh, catd],
        ids=["ds", "zencrowd", "glad", "crh", "catd"],
    )
    def test_categorical_outputs_are_valid_labels(self, fn, tiny_ds):
        out = fn(tiny_ds.answers, tiny_ds.schema)
        for j in tiny_ds.schema.categorical_idx:
            vals = out.loc[out["col"] == j, "truth"]
            assert vals.round().between(0, tiny_ds.schema.column(j).n_labels - 1).all()

    @pytest.mark.parametrize(
        "fn", [dawid_skene, zencrowd, glad],
        ids=["ds", "zencrowd", "glad"],
    )
    def test_cat_only_methods_empty_on_continuous_table(self, fn, easy_cont_ds):
        out = fn(easy_cont_ds.answers, easy_cont_ds.schema)
        assert out.empty

    def test_gtm_empty_on_categorical_table(self, easy_cat_ds):
        assert gtm(easy_cat_ds.answers, easy_cat_ds.schema).empty


class TestAccuracy:
    def test_ds_beats_or_matches_mv_often(self, easy_cat_ds):
        ds_out = dawid_skene(easy_cat_ds.answers, easy_cat_ds.schema)
        mv_out = mv_median(easy_cat_ds.answers, easy_cat_ds.schema)
        er_ds = error_rate(ds_out, easy_cat_ds.truth, easy_cat_ds.schema)
        er_mv = error_rate(mv_out, easy_cat_ds.truth, easy_cat_ds.schema)
        assert er_ds <= er_mv + 0.05

    def test_zencrowd_beats_mv(self, easy_cat_ds):
        z = zencrowd(easy_cat_ds.answers, easy_cat_ds.schema)
        mv = mv_median(easy_cat_ds.answers, easy_cat_ds.schema)
        assert error_rate(z, easy_cat_ds.truth, easy_cat_ds.schema) <= error_rate(
            mv, easy_cat_ds.truth, easy_cat_ds.schema
        )

    def test_glad_beats_mv(self, easy_cat_ds):
        g = glad(easy_cat_ds.answers, easy_cat_ds.schema)
        mv = mv_median(easy_cat_ds.answers, easy_cat_ds.schema)
        assert error_rate(g, easy_cat_ds.truth, easy_cat_ds.schema) <= error_rate(
            mv, easy_cat_ds.truth, easy_cat_ds.schema
        )

    def test_gtm_beats_unweighted_mean(self, easy_cont_ds):
        # The honest naive comparator for a weighted-mean method is the
        # unweighted mean (the median is robust to the heavy tail by design
        # and can win in the few-answers regime).
        g = gtm(easy_cont_ds.answers, easy_cont_ds.schema)
        mean_est = (
            easy_cont_ds.answers.groupby(["row", "col"])["value"]
            .mean()
            .rename("truth")
            .reset_index()
        )
        assert mnad(g, easy_cont_ds.truth, easy_cont_ds.schema) <= mnad(
            mean_est, easy_cont_ds.truth, easy_cont_ds.schema
        )

    @pytest.mark.parametrize("fn", [crh, catd], ids=["crh", "catd"])
    def test_heterogeneous_beat_unweighted_mean(self, fn, tiny_ds):
        out = fn(tiny_ds.answers, tiny_ds.schema)
        cont_idx = tiny_ds.schema.continuous_idx
        mean_est = (
            tiny_ds.answers[tiny_ds.answers["col"].isin(cont_idx)]
            .groupby(["row", "col"])["value"]
            .mean()
            .rename("truth")
            .reset_index()
        )
        # With only 3 answers/task the χ²/log weights are noisy — allow a
        # small tolerance over the unweighted mean.
        assert mnad(out, tiny_ds.truth, tiny_ds.schema) <= mnad(
            mean_est, tiny_ds.truth, tiny_ds.schema
        ) * 1.15


class TestCatd:
    def test_small_source_down_weighted(self, monkeypatch):
        # Workers 0 (40 answers) and 1 (5 answers) each miss by ±1 on rows
        # of their own, which an anchor worker answers exactly. From the
        # median start both lose the same per answer, so in every round of
        # catd the 5-answer worker must get the smaller weight: the lower
        # χ² quantile gives it 0.27x at equal loss, the upper one 1.7x.
        schema = TableSchema(columns=(ColumnSpec("x", CONTINUOUS),))
        rows = [(0, i, 0, 10.0 + (-1) ** i) for i in range(40)]
        rows += [(1, i, 0, 10.0 + (-1) ** i) for i in range(40, 45)]
        rows += [(2, i, 0, 10.0) for i in range(45)]
        a = pd.DataFrame(rows, columns=["worker", "row", "col", "value"])
        rounds = []

        def recording(n_u):
            rule = catd_weights(n_u)

            def weights(loss_u):
                rounds.append(rule(loss_u))
                return rounds[-1]

            return weights

        monkeypatch.setattr(catd_module, "catd_weights", recording)
        catd(a, schema)
        assert rounds
        assert all(w[1] < w[0] for w in rounds)

    def test_weight_rule_trusts_small_sources_less(self):
        n_u = np.array([5.0, 40.0])
        w = catd_weights(n_u)(0.5 * n_u)  # the same loss per answer
        assert w[0] < w[1]

    def test_catd_runs_and_converges(self, tiny_ds):
        out = catd(tiny_ds.answers, tiny_ds.schema)
        assert len(out) == tiny_ds.n_cells
        assert np.isfinite(out["truth"]).all()


class TestGtm:
    def test_recovers_scaled_columns(self):
        # Two continuous columns with wildly different scales; GTM's z-scoring
        # must keep both reasonable.
        schema = TableSchema(
            columns=(
                ColumnSpec("x", CONTINUOUS, domain=(0.0, 1.0)),
                ColumnSpec("y", CONTINUOUS, domain=(0.0, 1e6)),
            )
        )
        rng = np.random.default_rng(1)
        rows = []
        truth_rows = []
        for i in range(30):
            tx, ty = rng.random(), rng.random() * 1e6
            truth_rows += [(i, 0, tx), (i, 1, ty)]
            for u in range(5):
                rows.append((u, i, 0, tx + rng.normal(0, 0.05 * (1 + u))))
                rows.append((u, i, 1, ty + rng.normal(0, 5e4 * (1 + u))))
        a = pd.DataFrame(rows, columns=["worker", "row", "col", "value"])
        t = pd.DataFrame(truth_rows, columns=["row", "col", "truth"])
        out = gtm(a, schema)
        assert mnad(out, t, schema) < 0.2

    def test_worker_variance_ordering_internalised(self, easy_cont_ds):
        # GTM must down-weight noisy workers: its internal variance ranking
        # should track the hidden worker variances.
        from repro.crowd.schema import restrict_answers

        cont = restrict_answers(easy_cont_ds.answers, easy_cont_ds.schema, "cont")
        merged = cont.merge(easy_cont_ds.truth, on=["row", "col"])
        sd = merged.groupby("col")["truth"].transform(lambda s: max(s.std(), 1e-9))
        merged["nerr"] = ((merged["value"] - merged["truth"]) / sd) ** 2
        actual = merged.groupby("worker")["nerr"].mean()
        hidden = easy_cont_ds.worker_phi[actual.index]
        # Spearman: the φ distribution is heavy-tailed and spammers ignore
        # φ entirely, so Pearson on raw values is uninformative.
        rank = lambda s: np.argsort(np.argsort(s))  # noqa: E731
        r = np.corrcoef(rank(actual), rank(hidden))[0, 1]
        assert r > 0.3  # generator sanity: error tracks hidden phi


PINNED = {
    "crh": crh, "catd": catd, "zencrowd": zencrowd, "glad": glad, "gtm": gtm,
    "dawid_skene": dawid_skene, "mv_median": mv_median,
}


@pytest.fixture(scope="module")
def pinned_record():
    return json.loads((Path(__file__).parent / "data" / "baselines_pinned.json").read_text())


class TestPinnedBaselines:
    @pytest.mark.parametrize("dataset", ["tiny_ds", "restaurant_like_11"])
    @pytest.mark.parametrize("method", list(PINNED))
    def test_matches_recorded_truth(self, method, dataset, pinned_record, request):
        """The truth frame equals, to the last bit, the one each baseline
        produced when it still carried its own copy of the label posterior,
        the Gaussian posterior and the CRH/CATD loop. The bits depend on
        libm and on numpy's summation: the file records where they were made,
        and a failure message names both environments."""
        ds = request.getfixturevalue("tiny_ds") if dataset == "tiny_ds" else D.restaurant_like(11)
        here = {
            "machine": platform.machine(), "system": platform.system(),
            "libc": " ".join(platform.libc_ver()), "python": platform.python_version(),
            "numpy": np.__version__,
        }
        env = f"recorded on {pinned_record['recorded_on']}, running on {here}"
        rec = pinned_record["results"][dataset][method]
        want = pd.DataFrame(rec["rows"], columns=["row", "col", "truth"]).astype(rec["dtypes"])
        got = PINNED[method](ds.answers, ds.schema)
        try:
            pd.testing.assert_frame_equal(got, want, check_exact=True)
        except AssertionError as e:
            raise AssertionError(f"{e}\n{env}") from None


def _malformed(ds, how: str) -> pd.DataFrame:
    """``ds``'s answers with one malformed answer."""
    a = ds.answers.copy()
    cat = a["col"].isin(ds.schema.categorical_idx).to_numpy()
    if how == "label":
        i = a.index[cat][0]
        a.loc[i, "value"] = ds.schema.column(int(a.loc[i, "col"])).n_labels
    elif how == "nan":
        a.loc[a.index[~cat][0], "value"] = np.nan
    else:
        a = pd.concat([a, a.iloc[[len(a) // 2]]], ignore_index=True)
    return a


@pytest.mark.parametrize("how", ["label", "nan", "duplicate"])
@pytest.mark.parametrize("method", list(TABLE7_METHODS))
def test_every_table7_method_rejects_malformed_answers(method, how, tiny_ds):
    """An out-of-range label, a NaN and a duplicate (worker, row, col) each
    raise, whichever kind of column the method reads."""
    with pytest.raises(ValueError, match="malformed answer"):
        TABLE7_METHODS[method](_malformed(tiny_ds, how), tiny_ds.schema)
