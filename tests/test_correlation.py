"""Tests for the §5.2 error-correlation model (Tables 4–5, Eqs. 7–8)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.correlation import (
    Bernoulli,
    Normal,
    combined_conditional,
    compute_errors,
    conditional_error,
    fit_error_model,
)
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
        from repro.core.em import tcrowd_em

        res = tcrowd_em(restaurant_ds.answers, restaurant_ds.schema, max_iter=10)
        model = fit_error_model(
            restaurant_ds.answers, res.estimate, restaurant_ds.schema
        )
        assert model.w[3, 4] > 0.05  # start/end target errors correlate
