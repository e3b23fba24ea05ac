"""Tests for the §5.2 error-correlation model (Tables 4–5, Eqs. 7–8)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.correlation import (
    _MIN_PAIRS,
    _VAR_FLOOR,
    Bernoulli,
    ErrorModel,
    Normal,
    _fit_conditional,
    combined_conditional,
    compute_errors,
    conditional_error,
    fit_error_model,
)
from repro.core.em import tcrowd_em
from repro.crowd.schema import CATEGORICAL, CONTINUOUS, ColumnSpec, TableSchema


@pytest.fixture(scope="module")
def mixed_schema():
    return TableSchema(
        columns=(
            ColumnSpec("a", CATEGORICAL, n_labels=3),
            ColumnSpec("b", CATEGORICAL, n_labels=3),
            ColumnSpec("x", CONTINUOUS),
            ColumnSpec("y", CONTINUOUS),
        )
    )


def _make_correlated_answers(n=400, seed=0):
    """Worker errors: cat a & b correlated; cont x & y correlated. Returns
    the answers and the truth per flat cell ``row * 4 + col``."""
    g = np.random.default_rng(seed)
    rows = np.arange(n)
    truth = np.tile([1.0, 1.0, 0.0, 0.0], n)
    recs = []
    for i in rows:
        competent = g.random() < 0.7
        # categorical: competent → both right, else both likely wrong
        a_ok = competent or g.random() < 0.3
        b_ok = competent or g.random() < 0.3
        recs.append((0, i, 0, 1.0 if a_ok else 2.0))
        recs.append((0, i, 1, 1.0 if b_ok else 2.0))
        shared = g.normal(0, 1.0)
        recs.append((0, i, 2, shared + g.normal(0, 0.5)))
        recs.append((0, i, 3, shared + g.normal(0, 0.5)))
    answers = pd.DataFrame(recs, columns=["worker", "row", "col", "value"])
    # Distinct workers per row so the pivot has many (worker,row) samples.
    answers["worker"] = answers["row"] % 7
    return answers, truth


class TestComputeErrors:
    def test_categorical_error_is_indicator(self, mixed_schema):
        answers, truth = _make_correlated_answers(50)
        errs = compute_errors(answers, truth, mixed_schema)
        assert set(errs[answers["col"].isin([0, 1])]) == {0.0, 1.0}

    def test_continuous_error_is_signed(self, mixed_schema):
        answers, truth = _make_correlated_answers(50)
        errs = compute_errors(answers, truth, mixed_schema)
        cont = errs[answers["col"].isin([2, 3])]
        assert (cont < 0).any() and (cont > 0).any()

    def test_errors_in_answer_order_equal_merge(self, mixed_schema):
        """One error per answer, in answer order, equal to the error of the
        answer's row in a merge with the truth frame."""
        answers, truth = _make_correlated_answers(50)
        answers = answers.sample(frac=1.0, random_state=1).reset_index(drop=True)
        frame = pd.DataFrame({"row": np.arange(len(truth)) // 4,
                              "col": np.arange(len(truth)) % 4, "truth": truth})
        m = answers.merge(frame, on=["row", "col"], how="left")
        want = np.where(m["col"] < 2, (m["value"] != m["truth"]).astype(float),
                        m["value"] - m["truth"])
        assert compute_errors(answers, truth, mixed_schema).tolist() == want.tolist()


# ---------------------------------------------------------------------------
# Reference: the pandas fit the error grid replaced, kept verbatim.
# ---------------------------------------------------------------------------


def _ref_fit_error_model(
    answers: pd.DataFrame, estimate: np.ndarray, schema: TableSchema
) -> ErrorModel:
    """Estimate the full §5.2 model from the answers so far and T̂ per flat cell."""
    errs = answers[["worker", "row", "col"]].assign(err=compute_errors(answers, estimate, schema))
    # (worker, row) × col error matrix: workers answer whole rows (HIT
    # layout), so most rows of this pivot are complete.
    grid = errs.pivot_table(
        index=["worker", "row"], columns="col", values="err", aggfunc="mean"
    )
    m_cols = schema.n_cols
    cat = set(schema.categorical_idx)

    marginals: dict = {}
    for j in range(m_cols):
        col = grid[j].dropna().to_numpy() if j in grid.columns else np.array([])
        if j in cat:
            marginals[j] = Bernoulli(float(col.mean()) if len(col) else 0.5)
        else:
            mu = float(col.mean()) if len(col) else 0.0
            var = float(col.var()) if len(col) > 1 else 1.0
            marginals[j] = Normal(mu, max(var, _VAR_FLOOR))

    w = np.zeros((m_cols, m_cols))
    conditionals: dict = {}
    for j in range(m_cols):
        for k in range(m_cols):
            if j == k or j not in grid.columns or k not in grid.columns:
                continue
            both = grid[[j, k]].dropna()
            if len(both) < _MIN_PAIRS:
                continue
            ej = both[j].to_numpy()
            ek = both[k].to_numpy()
            sj, sk = ej.std(), ek.std()
            w[j, k] = (
                float(np.corrcoef(ej, ek)[0, 1]) if sj > 0 and sk > 0 else 0.0
            )
            if not np.isfinite(w[j, k]):
                w[j, k] = 0.0
            conditionals[(j, k)] = _fit_conditional(ej, ek, j in cat, k in cat)
    return ErrorModel(schema=schema, marginals=marginals, conditionals=conditionals, w=w)


def _assert_fit_equals_reference(answers, estimate, schema) -> ErrorModel:
    """``fit_error_model`` gives the reference's model to the last bit (a
    float's ``repr`` is exact and tells −0.0 from 0.0)."""
    got = fit_error_model(answers, estimate, schema)
    want = _ref_fit_error_model(answers, estimate, schema)
    assert repr(got.marginals) == repr(want.marginals)
    assert {key: repr(p) for key, p in got.conditionals.items()} == {
        key: repr(p) for key, p in want.conditionals.items()
    }
    assert got.w.tobytes() == want.w.tobytes()
    return got


class TestFitEqualsReference:
    """The error grid fits, bit for bit, the model of the pandas pivot it
    replaced."""

    def test_correlated_answers(self, mixed_schema):
        _assert_fit_equals_reference(*_make_correlated_answers(), mixed_schema)

    def test_tiny(self, tiny_ds, tiny_em):
        _assert_fit_equals_reference(tiny_ds.answers, tiny_em.estimate, tiny_ds.schema)

    def test_restaurant(self, restaurant_ds):
        res = tcrowd_em(restaurant_ds.answers, restaurant_ds.schema, max_iter=5)
        _assert_fit_equals_reference(restaurant_ds.answers, res.estimate, restaurant_ds.schema)

    def test_shuffled_answer_order(self, tiny_ds, tiny_em):
        shuffled = tiny_ds.answers.sample(frac=1.0, random_state=3).reset_index(drop=True)
        _assert_fit_equals_reference(shuffled, tiny_em.estimate, tiny_ds.schema)

    @pytest.mark.parametrize("empty", [1, 2])
    def test_column_without_answers(self, tiny_ds, tiny_em, empty):
        a = tiny_ds.answers
        model = _assert_fit_equals_reference(
            a[a["col"] != empty], tiny_em.estimate, tiny_ds.schema
        )
        assert not any(empty in key for key in model.conditionals)
        assert not model.w[empty].any() and not model.w[:, empty].any()

    @pytest.mark.parametrize("n_rows", [_MIN_PAIRS - 1, _MIN_PAIRS])
    def test_pair_with_few_complete_rows(self, mixed_schema, n_rows):
        """Column 3 answered in only ``n_rows`` rows: its pairs are fitted
        from ``_MIN_PAIRS`` complete rows on."""
        answers, truth = _make_correlated_answers()
        sparse = answers[(answers["col"] != 3) | (answers["row"] < n_rows)]
        model = _assert_fit_equals_reference(sparse, truth, mixed_schema)
        assert ((2, 3) in model.conditionals) == (n_rows >= _MIN_PAIRS)


class TestFitErrorModel:
    @pytest.fixture(scope="class")
    def model(self, mixed_schema):
        answers, truth = _make_correlated_answers()
        return fit_error_model(answers, truth, mixed_schema)

    def test_marginal_types(self, model):
        assert isinstance(model.marginals[0], Bernoulli)
        assert isinstance(model.marginals[2], Normal)

    def test_w_matrix_shape_and_symmetry_of_sign(self, model):
        assert model.w.shape == (4, 4)
        assert model.w[0, 1] == pytest.approx(model.w[1, 0], abs=1e-9)

    def test_correlated_pairs_detected(self, model):
        assert model.w[0, 1] > 0.2  # cat-cat correlation built in
        assert model.w[2, 3] > 0.5  # strong shared continuous component

    def test_case_cc_parameters(self, model):
        params = model.conditionals[(0, 1)]
        assert params["case"] == "cc"
        # Given b wrong, a is much more likely wrong.
        assert params["p_given_wrong"] > params["p_given_right"]

    def test_case_nn_conditional_tracks_value(self, model):
        d_low = conditional_error(model, 2, 3, -2.0)
        d_high = conditional_error(model, 2, 3, +2.0)
        assert isinstance(d_low, Normal)
        assert d_low.mu < d_high.mu  # positive correlation
        assert d_low.var < model.marginals[2].var  # conditioning shrinks var

    def test_case_nc_two_normals(self, model):
        params = model.conditionals[(2, 0)]
        assert params["case"] == "nc"
        d = conditional_error(model, 2, 0, 1.0)
        assert isinstance(d, Normal)

    def test_case_cn_bayes(self, model):
        params = model.conditionals[(0, 2)]
        assert params["case"] == "cn"
        d = conditional_error(model, 0, 2, 0.0)
        assert isinstance(d, Bernoulli)
        assert 0.0 <= d.p_wrong <= 1.0

    def test_missing_pair_falls_back_to_marginal(self, model):
        d = conditional_error(model, 0, 99, 0.0)
        assert d is model.marginals[0]


class TestCombinedConditional:
    @pytest.fixture(scope="class")
    def model(self, mixed_schema):
        answers, truth = _make_correlated_answers()
        return fit_error_model(answers, truth, mixed_schema)

    def test_categorical_target_combines_to_bernoulli(self, model):
        d = combined_conditional(model, 0, {1: 1.0, 2: 0.5})
        assert isinstance(d, Bernoulli)
        assert 0.0 <= d.p_wrong <= 1.0

    def test_continuous_target_combines_to_normal(self, model):
        d = combined_conditional(model, 2, {3: 1.5, 0: 0.0})
        assert isinstance(d, Normal)
        assert d.var > 0

    def test_no_observations_returns_none(self, model):
        assert combined_conditional(model, 0, {}) is None
        assert combined_conditional(model, 0, {0: 1.0}) is None  # self only

    def test_worse_observed_errors_worse_prediction(self, model):
        d_good = combined_conditional(model, 0, {1: 0.0})
        d_bad = combined_conditional(model, 0, {1: 1.0})
        assert d_bad.p_wrong > d_good.p_wrong

    def test_moment_matching_mean(self, model):
        # With a single observed error the combination equals the single
        # conditional.
        single = conditional_error(model, 2, 3, 1.0)
        combined = combined_conditional(model, 2, {3: 1.0})
        assert combined.mu == pytest.approx(single.mu)
        assert combined.var == pytest.approx(single.var)


class TestOnRealGenerator:
    def test_restaurant_span_pair_positive_w(self, restaurant_ds):
        res = tcrowd_em(restaurant_ds.answers, restaurant_ds.schema, max_iter=10)
        model = fit_error_model(
            restaurant_ds.answers, res.estimate, restaurant_ds.schema
        )
        assert model.w[3, 4] > 0.05  # start/end target errors correlate
