"""Unit tests for the T-Crowd EM kernel (repro.core.em)."""
import json
import math
import platform
from pathlib import Path

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.em as em
from repro.core.em import (
    REG_ALPHA,
    REG_PHI,
    AnswerLayout,
    CatCells,
    EMState,
    cat_groups,
    cat_posterior_arrays,
    column_moments,
    cont_posterior_arrays,
    init_params,
    m_step,
    q_objective,
    result_truth,
    run_estep,
    split_by_kind,
    tcrowd_em,
)
from repro.crowd import datasets as D
from repro.crowd.metrics import error_rate, mnad
from repro.crowd.schema import (
    CATEGORICAL,
    CONTINUOUS,
    ColumnSpec,
    TableSchema,
    restrict_answers,
)
from repro.crowd.stats import erf


def _estep_continuous(rows, values, v, mu0, var0):
    """``(cell_rows, t_mu, t_phi, s_per_answer)`` of one continuous column."""
    cell_rows, inv = np.unique(rows, return_inverse=True)
    return (cell_rows, *cont_posterior_arrays(inv, values, v, mu0, var0))


def _estep_categorical(rows, values, v, n_labels, eps):
    """``(cells, w_per_answer, q_per_answer)`` of one categorical column;
    the :class:`CatCells` record gives its cells column 0."""
    groups = cat_groups(rows, values, n_labels)
    pair_p, p0, w, q = cat_posterior_arrays(groups, v, n_labels, eps)
    return CatCells.build([(0, n_labels, groups, pair_p, p0)]), w, q


class TestEstepContinuous:
    def test_single_answer_posterior(self):
        # One answer a with variance v, prior N(mu0, var0):
        # precision-weighted mean.
        rows = np.array([0])
        values = np.array([4.0])
        v = np.array([2.0])
        mu0, var0 = 0.0, 8.0
        cell_rows, t_mu, t_phi, s = _estep_continuous(rows, values, v, mu0, var0)
        want_phi = 1.0 / (1.0 / 2.0 + 1.0 / 8.0)
        want_mu = (4.0 / 2.0 + 0.0 / 8.0) * want_phi
        assert t_phi[0] == pytest.approx(want_phi)
        assert t_mu[0] == pytest.approx(want_mu)
        assert s[0] == pytest.approx((4.0 - want_mu) ** 2 + want_phi)

    def test_two_equal_answers_average(self):
        rows = np.array([0, 0])
        values = np.array([2.0, 6.0])
        v = np.array([1.0, 1.0])
        _, t_mu, _, _ = _estep_continuous(rows, values, v, 4.0, 1e9)
        assert t_mu[0] == pytest.approx(4.0, abs=1e-6)

    def test_weighting_by_variance(self):
        # The low-variance answer dominates.
        rows = np.array([0, 0])
        values = np.array([0.0, 10.0])
        v = np.array([0.1, 10.0])
        _, t_mu, _, _ = _estep_continuous(rows, values, v, 5.0, 1e9)
        assert t_mu[0] < 1.0

    def test_posterior_variance_shrinks_with_answers(self):
        v = np.array([1.0, 1.0, 1.0])
        one = _estep_continuous(np.array([0]), np.array([1.0]), v[:1], 0, 100)
        three = _estep_continuous(
            np.zeros(3, dtype=int), np.array([1.0, 2.0, 3.0]), v, 0, 100
        )
        assert three[2][0] < one[2][0]

    def test_multiple_cells(self):
        rows = np.array([0, 0, 3, 3])
        values = np.array([1.0, 3.0, 10.0, 12.0])
        v = np.ones(4)
        cell_rows, t_mu, _, _ = _estep_continuous(rows, values, v, 0.0, 1e9)
        assert cell_rows.tolist() == [0, 3]
        assert t_mu[0] == pytest.approx(2.0, abs=1e-6)
        assert t_mu[1] == pytest.approx(11.0, abs=1e-6)


class TestEstepCategorical:
    def test_unanimous_answers_win(self):
        rows = np.zeros(3, dtype=int)
        values = np.full(3, 2.0)
        v = np.ones(3)
        cells, w, q = _estep_categorical(rows, values, v, 5, eps=1.0)
        assert cells.truth().tolist() == [2.0]
        assert w.min() > 0.9

    def test_posterior_normalised(self):
        rows = np.array([0, 0, 0])
        values = np.array([1.0, 2.0, 1.0])
        v = np.array([0.5, 1.0, 2.0])
        cells, _, _ = _estep_categorical(rows, values, v, 6, eps=1.0)
        total = cells.probs[0].sum() + cells.n_un[0] * cells.p0[0]
        assert total == pytest.approx(1.0)

    def test_two_answer_conflict_better_worker_wins(self):
        rows = np.array([0, 0])
        values = np.array([1.0, 3.0])
        v = np.array([0.05, 5.0])  # first worker far more reliable
        cells, _, _ = _estep_categorical(rows, values, v, 4, eps=1.0)
        assert cells.truth().tolist() == [1.0]

    def test_truth_is_an_answered_label_for_worse_than_random_worker(self):
        # q = erf(1/√200) ≈ 0.08 < 1/4: each unanswered label is more probable.
        cells, _, _ = _estep_categorical(
            np.zeros(1, dtype=int), np.array([2.0]), np.array([100.0]), 4, eps=1.0
        )
        assert cells.probs[0, 0] < cells.p0[0]
        assert cells.truth().tolist() == [2.0]

    def test_hand_computed_two_workers(self):
        # L=2, both answer label 1, qualities q1, q2:
        # P(T=1) ∝ q1 q2 ; P(T=0) ∝ (1-q1)(1-q2).
        v = np.array([0.8, 1.5])
        q1, q2 = (erf(1 / math.sqrt(2 * 0.8)), erf(1 / math.sqrt(2 * 1.5)))
        cells, _, _ = _estep_categorical(
            np.zeros(2, dtype=int), np.ones(2), v, 2, eps=1.0
        )
        want = (q1 * q2) / (q1 * q2 + (1 - q1) * (1 - q2))
        assert cells.labels.tolist() == [[1.0]]
        got = cells.probs[0, 0]
        assert got == pytest.approx(want, rel=1e-9)

    def test_unanswered_mass_counts(self):
        cells, _, _ = _estep_categorical(
            np.zeros(2, dtype=int), np.array([0.0, 1.0]), np.ones(2), 10, eps=1.0
        )
        assert cells.n_un.tolist() == [8]
        assert cells.n_ans.tolist() == [2]

    def test_per_answer_w_is_own_label_posterior(self):
        rows = np.array([0, 0])
        values = np.array([0.0, 1.0])
        cells, w, _ = _estep_categorical(rows, values, np.ones(2), 3, eps=1.0)
        for lab, expect in zip(cells.labels[0], cells.probs[0]):
            assert w[values == lab][0] == pytest.approx(expect)


def _one_cell(probs, n_un, p0):
    """A :class:`CatCells` of one cell with answered labels 0, 1, ..."""
    n = len(probs)
    one = lambda x: np.array([x], dtype=np.int64)  # noqa: E731
    return CatCells(
        rows=one(0), cols=one(0), n_labels=one(n + n_un), n_ans=one(n), n_un=one(n_un),
        p0=np.array([p0]), labels=np.arange(n, dtype=np.float64)[None, :],
        probs=np.array([probs], dtype=np.float64),
    )


class TestCatPosterior:
    """Entropy of a one-cell :class:`CatCells` posterior."""

    def test_entropy_uniform(self):
        p = _one_cell([0.25, 0.25], n_un=2, p0=0.25)
        assert p.entropy()[0] == pytest.approx(math.log(4))

    def test_entropy_certain(self):
        p = _one_cell([1.0], n_un=3, p0=0.0)
        assert p.entropy()[0] == pytest.approx(0.0)


class TestMStep:
    def _stats_and_state(self, seed=0, n=200):
        g = np.random.default_rng(seed)
        stats = {
            "row": g.integers(0, 5, n),
            "col": g.integers(0, 3, n),
            "worker": g.integers(0, 7, n),
            "is_cat": g.random(n) < 0.5,
            "s": g.random(n) * 2 + 0.1,
            "w": g.random(n),
            "n_labels": np.full(n, 4.0),
        }
        stats["by_kind"] = split_by_kind(stats)
        state = EMState(
            g.normal(0, 0.2, 5), g.normal(0, 0.2, 3), g.normal(0, 0.2, 7)
        )
        return stats, state

    def test_gradient_matches_finite_difference(self):
        stats, state = self._stats_and_state()
        eps = 1.0
        _, g = q_objective(stats, state, eps)
        # Perturb one worker's ln φ and compare.
        u, h = 3, 1e-6
        for sign in (+1, -1):
            pass
        st2 = state.copy()
        st2.ln_phi[u] += h
        q_plus, _ = q_objective(stats, st2, eps)
        st2.ln_phi[u] -= 2 * h
        q_minus, _ = q_objective(stats, st2, eps)
        fd = (q_plus - q_minus) / (2 * h)
        analytic = g[stats["worker"] == u].sum()
        assert analytic == pytest.approx(fd, rel=1e-4)

    def test_gradient_matches_fd_alpha(self):
        stats, state = self._stats_and_state(seed=1)
        reg = 2.0
        i, h = 2, 1e-6
        _, g = q_objective(stats, state, 1.0, reg)
        st2 = state.copy()
        st2.ln_alpha[i] += h
        qp, _ = q_objective(stats, st2, 1.0, reg)
        st2.ln_alpha[i] -= 2 * h
        qm, _ = q_objective(stats, st2, 1.0, reg)
        fd = (qp - qm) / (2 * h)
        analytic = g[stats["row"] == i].sum() - 2 * reg * state.ln_alpha[i]
        assert analytic == pytest.approx(fd, rel=1e-4)

    def test_mstep_increases_q(self):
        stats, state = self._stats_and_state(seed=2)
        q0, _ = q_objective(stats, state, 1.0, 2.0)
        new_state, q1 = m_step(stats, state, 1.0)
        assert q1 >= q0 - 1e-9

    def test_mstep_renormalises(self):
        stats, state = self._stats_and_state(seed=3)
        new_state, _ = m_step(stats, state, 1.0)
        assert new_state.ln_alpha.mean() == pytest.approx(0.0, abs=1e-9)
        assert new_state.ln_phi.mean() == pytest.approx(0.0, abs=1e-9)

    def test_renormalisation_preserves_product(self):
        stats, state = self._stats_and_state(seed=4)
        new_state, q1 = m_step(stats, state, 1.0)
        q_check, _ = q_objective(stats, new_state, 1.0, 0.0)
        # Re-evaluating Q at the renormalised params must give (almost) the
        # same value as the unregularised part is scale-invariant only
        # through the product α β φ — verify Q is finite and sane.
        assert np.isfinite(q_check)

    @pytest.mark.xfail(
        strict=True,
        reason="m_step scores its backtracking candidates with q_objective(stats, cand, "
        "eps, reg_alpha): reg_phi is left at 0.0, so a candidate's Q lacks the ln φ ridge "
        "the current point's Q carries. Fixing it alone slows the online workload "
        "(ROADMAP item 1), so the fix lands with the ECM/SQUAREM M-step.",
    )
    def test_every_q_evaluation_uses_both_ridges(self, monkeypatch):
        stats, state = self._stats_and_state(seed=5)
        ridges = []

        def spy(stats, state, eps, reg_alpha=0.0, reg_phi=0.0):
            ridges.append((reg_alpha, reg_phi))
            return q_objective(stats, state, eps, reg_alpha, reg_phi)

        monkeypatch.setattr(em, "q_objective", spy)
        m_step(stats, state, 1.0)
        assert len(ridges) > 1
        assert set(ridges) == {(REG_ALPHA, REG_PHI)}


def _init(answers, schema, n_rows=30, n_workers=20):
    return init_params(column_moments(answers, schema), schema, n_rows, n_workers)


class TestInitAndPriors:
    def test_priors_match_column_moments(self, tiny_ds):
        priors, _ = _init(tiny_ds.answers, tiny_ds.schema)
        for j in tiny_ds.schema.continuous_idx:
            vals = tiny_ds.answers.loc[tiny_ds.answers["col"] == j, "value"]
            mu0, var0 = priors[j]
            assert mu0 == pytest.approx(vals.mean())
            assert var0 == pytest.approx(vals.var(ddof=0), rel=1e-6)

    def test_init_state_shapes(self, tiny_ds):
        _, st = _init(tiny_ds.answers, tiny_ds.schema)
        assert st.ln_alpha.shape == (30,)
        assert st.ln_beta.shape == (4,)
        assert st.ln_phi.shape == (20,)

    def test_init_beta_continuous_scale(self, tiny_ds):
        _, st = _init(tiny_ds.answers, tiny_ds.schema)
        for j in tiny_ds.schema.continuous_idx:
            vals = tiny_ds.answers.loc[tiny_ds.answers["col"] == j, "value"]
            assert st.ln_beta[j] == pytest.approx(np.log(vals.var(ddof=0)), rel=1e-6)
        for j in tiny_ds.schema.categorical_idx:
            assert st.ln_beta[j] == 0.0

    def test_unanswered_column_gets_domain_prior(self, tiny_ds):
        a = tiny_ds.answers
        priors, st = _init(a[a["col"] != 3], tiny_ds.schema)
        assert priors[3] == (0.0, 25.0**2)  # x1's domain is (-50, 50)
        assert st.ln_beta[3] == 0.0

    def test_single_answer_column(self, tiny_ds):
        a = tiny_ds.answers
        x1 = a.index[a["col"] == 3]
        priors, st = _init(a.drop(x1[1:]), tiny_ds.schema)
        assert priors[3] == (a.loc[x1[0], "value"], 1e-6)
        assert st.ln_beta[3] == 0.0


class TestFullEM:
    def test_truth_covers_answered_cells(self, tiny_ds, tiny_em):
        assert len(tiny_em.truth) == tiny_ds.n_cells
        assert not tiny_em.truth.duplicated(["row", "col"]).any()

    def test_converges(self, tiny_em):
        assert tiny_em.converged
        assert tiny_em.n_iters <= 40

    def test_q_trace_mostly_increasing(self, tiny_em):
        q = np.array(tiny_em.q_trace)
        # EM is monotone in the true likelihood; Q across iterations should
        # trend upward strongly (tiny wiggles possible from E-step swap).
        assert q[-1] > q[0]
        assert (np.diff(q) > -1.0).all()

    def test_rejects_out_of_range_label(self, tiny_ds):
        # Label 4 in a 4-label column used to drop its cell's row and give
        # the next row a phantom vote.
        a = tiny_ds.answers.copy()
        a.loc[0, "col"], a.loc[0, "value"] = 0, 4.0
        with pytest.raises(ValueError, match="position 0.*not a label code 0..3"):
            tcrowd_em(a, tiny_ds.schema)

    def test_rejects_nan_answer(self, tiny_ds):
        # A NaN used to poison its cell and give the truth a garbage row id.
        a = tiny_ds.answers.copy()
        a.loc[5, "value"] = np.nan
        with pytest.raises(ValueError, match="position 5.*non-finite value"):
            tcrowd_em(a, tiny_ds.schema)

    def test_beats_naive_baselines(self, tiny_ds, tiny_em):
        from repro.baselines.voting import mv_median

        naive = mv_median(tiny_ds.answers, tiny_ds.schema)
        assert error_rate(tiny_em.truth, tiny_ds.truth, tiny_ds.schema) <= error_rate(
            naive, tiny_ds.truth, tiny_ds.schema
        )
        assert mnad(tiny_em.truth, tiny_ds.truth, tiny_ds.schema) <= mnad(
            naive, tiny_ds.truth, tiny_ds.schema
        )

    def test_worker_quality_anticorrelates_with_hidden_phi(self, tiny_ds, tiny_em):
        est_q = tiny_em.worker_quality
        hid = tiny_ds.worker_phi.to_numpy()
        n = min(len(est_q), len(hid))
        # Spearman (heavy-tailed φ makes Pearson unstable on 20 workers).
        rank = lambda s: np.argsort(np.argsort(s))  # noqa: E731
        r = np.corrcoef(rank(est_q[:n]), rank(hid[:n]))[0, 1]
        assert r < -0.35

    def test_warm_start_converges_faster(self, tiny_ds, tiny_em):
        warm = tcrowd_em(
            tiny_ds.answers, tiny_ds.schema, warm_state=tiny_em.state
        )
        assert warm.n_iters <= tiny_em.n_iters

    def test_warm_start_pads_new_rows_and_workers(self, tiny_ds, tiny_em):
        extra = tiny_ds.answers.copy()
        extra = pd.concat(
            [
                extra,
                pd.DataFrame(
                    {"worker": [25], "row": [35], "col": [2], "value": [50.0]}
                ),
            ],
            ignore_index=True,
        )
        res = tcrowd_em(
            extra, tiny_ds.schema, warm_state=tiny_em.state, max_iter=2
        )
        assert len(res.state.ln_alpha) == 36
        assert len(res.state.ln_phi) == 26

    def test_empty_answers_raise(self, tiny_ds):
        with pytest.raises(ValueError):
            tcrowd_em(tiny_ds.answers.iloc[0:0], tiny_ds.schema)

    def test_single_datatype_tables(self):
        # All-continuous and all-categorical corner cases run end-to-end.
        for gen_kw in [dict(cat_ratio=0.0), dict(cat_ratio=1.0)]:
            ds = D.synthetic_table(n_rows=20, m=3, n_workers=10, n_per_task=3,
                                   seed=5, **gen_kw)
            res = tcrowd_em(ds.answers, ds.schema)
            assert len(res.truth) == ds.n_cells

    def test_result_truth_layout(self, tiny_em):
        assert list(tiny_em.truth.columns) == ["row", "col", "truth"]

    def test_categorical_estimates_are_valid_labels(self, tiny_ds, tiny_em):
        for j in tiny_ds.schema.categorical_idx:
            est = tiny_em.truth[tiny_em.truth["col"] == j]["truth"]
            assert est.round().between(0, tiny_ds.schema.column(j).n_labels - 1).all()


class TestRecovery:
    """On data drawn exactly from the model, the EM must recover truth well."""

    def test_near_perfect_with_many_good_answers(self):
        schema = TableSchema(
            columns=(
                ColumnSpec("c", CATEGORICAL, n_labels=4),
                ColumnSpec("x", CONTINUOUS, domain=(0.0, 100.0)),
            )
        )
        g = np.random.default_rng(9)
        truth = D._uniform_truth(schema, 25, g)
        from repro.crowd.workers import WorkerPool, simulate_answers

        pool = WorkerPool(
            phi=np.full(15, 0.3), is_spammer=np.zeros(15, dtype=bool)
        )
        ds = simulate_answers(
            schema, truth, pool, n_per_task=9, seed=10,
            p_unfamiliar=0.0, alpha_sigma=0.1,
        )
        res = tcrowd_em(ds.answers, ds.schema)
        assert error_rate(res.truth, ds.truth, ds.schema) <= 0.05
        assert mnad(res.truth, ds.truth, ds.schema) <= 0.25


# ---------------------------------------------------------------------------
# The layout-driven E-step and the pre-split Q against reference versions.
# ---------------------------------------------------------------------------

def _reference_categorical(rows, values, v, n_labels, eps):
    """The categorical E-step as one function with a per-cell loop: the
    reference the grouping/kernel/assembly split must reproduce exactly."""
    t = eps / np.sqrt(2.0 * v)
    q = np.clip(np.asarray(erf(t), dtype=np.float64), 1e-9, 1.0 - 1e-9)
    delta = np.log(q) - np.log((1.0 - q) / (n_labels - 1))
    key = rows.astype(np.int64) * n_labels + values.astype(np.int64)
    pair_key, pair_inv = np.unique(key, return_inverse=True)
    pair_delta = np.bincount(pair_inv, weights=delta)
    pair_row, pair_label = pair_key // n_labels, pair_key % n_labels
    cell_rows, cell_inv = np.unique(pair_row, return_inverse=True)
    n_cells = len(cell_rows)
    mx = np.zeros(n_cells)
    np.maximum.at(mx, cell_inv, pair_delta)
    ex = np.exp(pair_delta - mx[cell_inv])
    sum_ex = np.bincount(cell_inv, weights=ex, minlength=n_cells)
    n_un = n_labels - np.bincount(cell_inv, minlength=n_cells)
    z = sum_ex + n_un * np.exp(-mx)
    pair_p = ex / z[cell_inv]
    p0 = np.exp(-mx) / z
    posteriors = {}
    for c in range(n_cells):
        sl = np.flatnonzero(cell_inv == c)
        posteriors[int(cell_rows[c])] = (
            pair_label[sl].astype(np.float64), pair_p[sl], int(n_un[c]), float(p0[c])
        )
    return posteriors, pair_p[pair_inv], q


def _reference_estep(answers, schema, state, priors, eps):
    """One E-step column by column over boolean masks, with no layout."""
    r = answers["row"].to_numpy(dtype=np.int64)
    c = answers["col"].to_numpy(dtype=np.int64)
    u = answers["worker"].to_numpy(dtype=np.int64)
    val = answers["value"].to_numpy(dtype=np.float64)
    v_all = np.exp(state.ln_alpha[r] + state.ln_beta[c] + state.ln_phi[u])
    n = len(answers)
    s, w, is_cat, n_labels = np.zeros(n), np.zeros(n), np.zeros(n, bool), np.ones(n)
    cont, cat_cells = [], {}
    for j, cspec in enumerate(schema.columns):
        m = c == j
        if not m.any():
            continue
        if cspec.is_categorical:
            posts, w[m], _ = _reference_categorical(r[m], val[m], v_all[m], cspec.n_labels, eps)
            is_cat[m], n_labels[m] = True, cspec.n_labels
            cat_cells.update({(row, j): p for row, p in posts.items()})
        else:
            rows, t_mu, t_phi, s[m] = _estep_continuous(r[m], val[m], v_all[m], *priors[j])
            cont.append(pd.DataFrame({"row": rows, "col": j, "t_mu": t_mu, "t_phi": t_phi}))
    stats = dict(row=r, col=c, worker=u, is_cat=is_cat, s=s, w=w, n_labels=n_labels)
    return pd.concat(cont, ignore_index=True), cat_cells, stats


_ESTEP_SCHEMA = TableSchema(
    columns=(
        ColumnSpec("a", CATEGORICAL, n_labels=2),
        ColumnSpec("x", CONTINUOUS, domain=(0.0, 10.0)),
        ColumnSpec("b", CATEGORICAL, n_labels=5),
        ColumnSpec("y", CONTINUOUS, domain=(-5.0, 5.0)),
    )
)


@st.composite
def _answers_and_state(draw):
    """Answers to a 4-column table: 1 to ``per_cell`` answers per cell, with
    labels drawn from 3 values so that a cell often repeats a label."""
    n_rows, n_workers = draw(st.integers(1, 6)), 8
    per_cell = draw(st.sampled_from([1, 4]))
    recs = []
    for row in range(n_rows):
        for j, cspec in enumerate(_ESTEP_SCHEMA.columns):
            k = draw(st.integers(1, per_cell))
            workers = draw(st.permutations(range(n_workers)))[:k]
            for wk in workers:
                if cspec.is_categorical:
                    value = float(draw(st.integers(0, min(2, cspec.n_labels - 1))))
                else:
                    value = draw(st.floats(-5.0, 10.0))
                recs.append((wk, row, j, value))
    answers = pd.DataFrame(recs, columns=["worker", "row", "col", "value"])
    ln = st.floats(-2.0, 2.0)
    state = EMState(
        np.array(draw(st.lists(ln, min_size=n_rows, max_size=n_rows))),
        np.array(draw(st.lists(ln, min_size=4, max_size=4))),
        np.array(draw(st.lists(ln, min_size=n_workers, max_size=n_workers))),
    )
    return answers, state


class TestLayoutEstep:
    @given(_answers_and_state())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_column_kernels(self, case):
        answers, state = case
        priors, _ = _init(answers, _ESTEP_SCHEMA)
        want_cont, want_cat, want_stats = _reference_estep(
            answers, _ESTEP_SCHEMA, state, priors, 1.0
        )
        layout = AnswerLayout.build(answers, _ESTEP_SCHEMA)
        cont, cat, stats = run_estep(layout, state, priors, 1.0)
        none_cont, none_cat, lean_stats = run_estep(layout, state, priors, 1.0, posteriors=False)
        assert none_cont is None and none_cat is None
        want_split = split_by_kind(want_stats)
        for got in (stats, lean_stats):
            assert got.keys() == want_stats.keys() | {"by_kind"}
            for k in want_stats:
                assert got[k].dtype == want_stats[k].dtype
                assert np.array_equal(got[k], want_stats[k]), k
            for kind, want_part in want_split.items():
                assert got["by_kind"][kind].keys() == want_part.keys()
                for k, want_arr in want_part.items():
                    assert got["by_kind"][kind][k].dtype == want_arr.dtype
                    assert np.array_equal(got["by_kind"][kind][k], want_arr), (kind, k)
        pd.testing.assert_frame_equal(cont, want_cont, check_exact=True)
        assert list(zip(cat.rows.tolist(), cat.cols.tolist())) == list(want_cat)
        for i, (labels, probs, n_un, p0) in enumerate(want_cat.values()):
            n = cat.n_ans[i]
            assert np.array_equal(cat.labels[i, :n], labels)
            assert np.array_equal(cat.probs[i, :n], probs)
            assert not cat.labels[i, n:].any() and not cat.probs[i, n:].any()
            assert (cat.n_un[i], cat.p0[i]) == (n_un, p0)


def _reference_q_objective(stats, state, eps, reg_alpha, reg_phi):
    """Q and its per-answer gradient over boolean masks, with no split."""
    r, c, u, is_cat = stats["row"], stats["col"], stats["worker"], stats["is_cat"]
    v = np.exp(state.ln_alpha[r] + state.ln_beta[c] + state.ln_phi[u])
    s, w, nl = stats["s"], stats["w"], stats["n_labels"]
    g, qv = np.empty(len(r)), np.zeros(len(r))
    cont = ~is_cat
    qv[cont] = -0.5 * np.log(2.0 * np.pi * v[cont]) - s[cont] / (2.0 * v[cont])
    g[cont] = -0.5 + s[cont] / (2.0 * v[cont])
    t = eps / np.sqrt(2.0 * v[is_cat])
    q = np.clip(np.asarray(erf(t), dtype=np.float64), 1e-9, 1.0 - 1e-9)
    wc, nlc = w[is_cat], nl[is_cat]
    qv[is_cat] = wc * np.log(q) + (1.0 - wc) * np.log((1.0 - q) / (nlc - 1))
    g[is_cat] = (wc / q - (1.0 - wc) / (1.0 - q)) * (-t * np.exp(-t * t) / np.sqrt(np.pi))
    total = (
        float(qv.sum())
        - reg_alpha * float(np.sum(state.ln_alpha**2))
        - reg_phi * float(np.sum(state.ln_phi**2))
    )
    return total, g


class TestQObjectiveSplit:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_with_and_without_pre_split(self, seed):
        """Q on the split statistics equals the reference, which splits nothing."""
        stats, state = TestMStep()._stats_and_state(seed=seed, n=300)
        want_q, want_g = _reference_q_objective(stats, state, 1.0, 2.0, 0.5)
        q, g = q_objective(stats, state, 1.0, 2.0, 0.5)
        assert q == want_q
        assert np.array_equal(g, want_g)


class TestCatCellsRecord:
    @given(_answers_and_state(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_rows_are_padded_normalised_posteriors(self, case, cont_only):
        answers, _ = case
        if cont_only:  # no categorical answers: the record has no rows
            answers = restrict_answers(answers, _ESTEP_SCHEMA, "cont")
        cat = tcrowd_em(answers, _ESTEP_SCHEMA, max_iter=3).cat_cells
        n = len(cat.rows)
        assert n == 0 if cont_only else n > 0
        assert cat.truth().shape == cat.entropy().shape == (n,)
        assert (cat.n_ans + cat.n_un == cat.n_labels).all()
        for i in range(n):
            k = cat.n_ans[i]
            assert abs(cat.probs[i, :k].sum() + cat.n_un[i] * cat.p0[i] - 1.0) <= 1e-12
            assert not cat.probs[i, k:].any() and not cat.labels[i, k:].any()
            assert (np.diff(cat.labels[i, :k]) > 0).all()


class TestPinnedResult:
    def test_tiny_matches_recorded_result(self, tiny_em):
        """Truth and Q trace on ``tiny_ds`` equal, to the last bit, those the
        per-column E-step and per-call M-step produced before the answer
        layout existed. The bits depend on libm's ``erf`` and on numpy's
        summation and ``np.unique``: the file records where they were made,
        and a failure message names both environments."""
        rec = json.loads((Path(__file__).parent / "data" / "tcrowd_em_tiny.json").read_text())
        here = {
            "machine": platform.machine(), "system": platform.system(),
            "libc": " ".join(platform.libc_ver()), "python": platform.python_version(),
            "numpy": np.__version__,
        }
        env = f"recorded on {rec['recorded_on']}, running on {here}"
        assert tiny_em.n_iters == rec["n_iters"], env
        assert tiny_em.converged == rec["converged"], env
        assert tiny_em.q_trace == rec["q_trace"], env
        got = list(zip(tiny_em.truth["row"], tiny_em.truth["col"], tiny_em.truth["truth"]))
        assert got == [tuple(t) for t in rec["truth"]], env
