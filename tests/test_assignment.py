"""Tests for the §5 assignment policies and information-gain math."""
import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import assignment
from repro.core.assignment import (
    _EPS_Q,
    AskItPolicy,
    AssignmentView,
    CdasPolicy,
    EntropyPolicy,
    InherentIGPolicy,
    LoopingPolicy,
    RandomPolicy,
    StructureAwarePolicy,
    cat_ig,
    uniform_entropy,
)
from repro.core.correlation import (
    Bernoulli,
    Normal,
    combined_conditional,
    fit_error_model,
)
from repro.core.em import EPS, EMState, tcrowd_em
from repro.crowd.schema import restrict_answers
from repro.crowd.stats import erf


# ---------------------------------------------------------------------------
# Reference: the per-cell scoring the array kernel replaced, kept verbatim.
# ---------------------------------------------------------------------------

class _Post(NamedTuple):
    """One categorical cell posterior: ``probs`` over its answered labels,
    and ``n_unanswered`` labels at ``p0`` each."""

    probs: np.ndarray
    n_unanswered: int
    p0: float


def _posts(cat_cells, n_cols: int) -> dict:
    """``(row, col)`` -> :class:`_Post` of each cell of a ``CatCells``."""
    return {
        divmod(int(cell), n_cols): _Post(cat_cells.probs[i, :n], int(nu), float(p))
        for i, (cell, n, nu, p) in enumerate(zip(
            cat_cells.cells, cat_cells.n_ans, cat_cells.n_un, cat_cells.p0
        ))
    }


def _cell_params(view: AssignmentView, worker: int, row: int, col: int):
    st = view.result.state
    ln_a = st.ln_alpha[row] if row < len(st.ln_alpha) else 0.0
    ln_b = st.ln_beta[col]
    ln_p = st.ln_phi[worker] if worker < len(st.ln_phi) else 0.0
    return float(np.exp(ln_a + ln_b + ln_p))


def _cat_ig(post, q: float, n_labels: int) -> float:
    """Expected Shannon-entropy drop of one categorical cell for a worker of
    per-cell accuracy q (Eq. 6, local update).

    Enumerates the worker's possible answers over answered labels plus one
    representative unanswered label (all unanswered labels are exchangeable).
    """
    q = float(np.clip(q, _EPS_Q, 1.0 - _EPS_Q))
    probs = np.asarray(post.probs, dtype=np.float64)
    n_un = post.n_unanswered
    p0 = post.p0
    wrong = (1.0 - q) / (n_labels - 1)

    def _entropy(ans: np.ndarray, p_un: float, n_unans: int) -> float:
        pos = ans[ans > 0]
        h = -float(np.sum(pos * np.log(pos)))
        if n_unans > 0 and p_un > 0:
            h -= n_unans * p_un * np.log(p_un)
        return h

    h0 = _entropy(probs, p0, n_un)
    exp_h = 0.0
    # The worker answers some answered label idx: posterior ∝ prior ×
    # likelihood; the predictive probability of that answer equals the
    # posterior normaliser, so one pass gives both.
    for idx in range(len(probs)):
        lik = np.full(len(probs), wrong)
        lik[idx] = q
        new_ans = probs * lik
        new_p0 = p0 * wrong
        z = float(new_ans.sum() + n_un * new_p0)  # == P(answer = this label)
        if z <= 0:
            continue
        exp_h += z * _entropy(new_ans / z, new_p0 / z, n_un)
    # Or one of the n_un exchangeable unanswered labels: the chosen label
    # gets likelihood q and leaves the pool, the other n_un−1 stay at
    # ``wrong``; all n_un cases are identical.
    if n_un > 0:
        new_ans = np.append(probs * wrong, p0 * q)
        new_p0 = p0 * wrong
        z = float(new_ans.sum() + (n_un - 1) * new_p0)
        if z > 0:
            exp_h += n_un * z * _entropy(new_ans / z, new_p0 / z, n_un - 1)
    return h0 - exp_h


def _ref_inherent_gains(view: AssignmentView, worker: int) -> dict:
    res = view.result
    ig: dict = {}
    for i in np.flatnonzero(~np.isnan(res.t_phi)):
        cell = divmod(int(i), view.schema.n_cols)
        v_u = _cell_params(view, worker, *cell)
        t_phi = float(res.t_phi[i])
        t_phi_new = 1.0 / (1.0 / t_phi + 1.0 / v_u)
        ig[cell] = 0.5 * float(np.log(t_phi / t_phi_new))
    for cell, post in _posts(res.cat_cells, view.schema.n_cols).items():
        v_u = _cell_params(view, worker, *cell)
        q = float(erf(EPS / np.sqrt(2.0 * v_u)))
        n_labels = view.schema.column(cell[1]).n_labels
        ig[cell] = _cat_ig(post, q, n_labels)
    return ig


def _ref_observed_errors(view: AssignmentView, worker: int) -> dict:
    sub = view.answers[view.answers["worker"] == worker]
    if sub.empty or view.result is None:
        return {}
    merged = sub.merge(view.result.truth, on=["row", "col"], how="inner")
    cat = set(view.schema.categorical_idx)
    out: dict = {}
    for rec in merged.itertuples():
        j = int(rec.col)
        err = (
            float(round(rec.value) != round(rec.truth))
            if j in cat
            else float(rec.value - rec.truth)
        )
        out.setdefault(int(rec.row), {})[j] = err
    return out


def _ref_structure_gains(view: AssignmentView, worker: int) -> dict:
    ig = _ref_inherent_gains(view, worker)
    model = view.error_model
    if model is None:
        return ig
    observed = _ref_observed_errors(view, worker)
    posts = _posts(view.result.cat_cells, view.schema.n_cols)
    for row, errs in observed.items():
        for j in range(view.schema.n_cols):
            cell = (row, j)
            if cell not in ig or j in errs:
                continue
            dist = combined_conditional(model, j, errs)
            if dist is None:
                continue
            if isinstance(dist, Bernoulli):
                post = posts.get(cell)
                if post is None:
                    continue
                q_eff = float(np.clip(1.0 - dist.p_wrong, _EPS_Q, 1.0 - _EPS_Q))
                n_labels = view.schema.column(j).n_labels
                ig[cell] = _cat_ig(post, q_eff, n_labels)
            else:
                assert isinstance(dist, Normal)
                t_phi = float(view.result.t_phi[row * view.schema.n_cols + j])
                if math.isnan(t_phi):
                    continue
                v_eff = max(dist.var + dist.mu**2, 1e-12)
                t_phi_new = 1.0 / (1.0 / t_phi + 1.0 / v_eff)
                ig[cell] = 0.5 * float(np.log(t_phi / t_phi_new))
    return ig


def _kernel(posts, q, n_labels) -> np.ndarray:
    """Call :func:`cat_ig` on one row per posterior."""
    n_ans = np.array([len(p.probs) for p in posts])
    probs = np.zeros((len(posts), max(n_ans)))
    for i, p in enumerate(posts):
        probs[i, : n_ans[i]] = p.probs
    return cat_ig(
        probs,
        n_ans,
        np.array([p.n_unanswered for p in posts]),
        np.array([p.p0 for p in posts], dtype=float),
        np.asarray(n_labels),
        np.asarray(q, dtype=float),
    )


def _by_cell(view: AssignmentView, flat: np.ndarray) -> dict:
    """``(row, col)`` -> value of each non-NaN entry of a flat per-cell
    array, the form of the reference dicts."""
    return {
        divmod(i, view.schema.n_cols): x
        for i, x in enumerate(flat.tolist()) if not math.isnan(x)
    }


def _answered(view: AssignmentView, worker: int) -> set:
    """The ``(row, col)`` cells ``worker`` has answered."""
    a = view.answers[view.answers["worker"] == worker]
    return set(zip(a["row"].tolist(), a["col"].tolist()))


@pytest.fixture(scope="module")
def view(tiny_ds, tiny_em):
    model = fit_error_model(tiny_ds.answers, tiny_em.estimate, tiny_ds.schema)
    return AssignmentView(
        schema=tiny_ds.schema,
        n_rows=30,
        answers=tiny_ds.answers,
        result=tiny_em,
        error_model=model,
    )


@pytest.fixture(scope="module")
def partial_view(view):
    """Conditioning only applies to the *unanswered* cells of rows the
    worker partially answered (in the HIT-batch data every touched row is
    complete, so build a partial history: drop the worker's answers on
    column 3). Returns ``(view, worker)``."""
    w = int(view.answers["worker"].mode()[0])
    a = view.answers
    partial = a[~((a["worker"] == w) & (a["col"] == 3))].reset_index(drop=True)
    return dataclasses.replace(view, answers=partial), w


@pytest.fixture(scope="module")
def restaurant_view(restaurant_ds):
    res = tcrowd_em(restaurant_ds.answers, restaurant_ds.schema, max_iter=5)
    return AssignmentView(restaurant_ds.schema, restaurant_ds.n_rows, restaurant_ds.answers, res)


class TestObservedErrorsEqualReference:
    """The worker's errors by index mask equal those of the merge with the
    truth frame, row by row and in answer order."""

    def _check(self, view, worker):
        got = StructureAwarePolicy()._observed_errors(view, worker)
        want = _ref_observed_errors(view, worker)
        assert got == want
        assert [(row, list(errs)) for row, errs in got.items()] == [
            (row, list(errs)) for row, errs in want.items()
        ]
        return got

    def test_partial_history(self, partial_view):
        view2, w = partial_view
        assert self._check(view2, w)

    @pytest.mark.parametrize("worker", [0, 1, 7, 30])
    def test_restaurant(self, restaurant_view, worker):
        self._check(restaurant_view, worker)

    def test_unseen_worker(self, restaurant_view):
        assert self._check(restaurant_view, 10**6) == {}


class TestCatIG:
    def _post(self, probs, n_un=0, p0=0.0):
        return _Post(np.asarray(probs, dtype=float), n_un, p0)

    def _ig(self, post, q, n_labels):
        return _kernel([post], [q], [n_labels])[0]

    def test_nonnegative_for_uncertain_cell(self):
        post = self._post([0.5, 0.5])
        assert self._ig(post, q=0.8, n_labels=2) > 0

    def test_zero_for_certain_cell(self):
        post = self._post([1.0, 0.0])
        assert self._ig(post, q=0.8, n_labels=2) == pytest.approx(0.0, abs=1e-9)

    def test_useless_worker_gains_nothing(self):
        # q = 1/L: the worker's answer is uniformly random → no information.
        post = self._post([0.5, 0.5])
        assert self._ig(post, q=0.5, n_labels=2) == pytest.approx(0.0, abs=1e-9)

    def test_better_worker_more_gain(self):
        post = self._post([0.6, 0.4])
        g_weak = self._ig(post, q=0.6, n_labels=2)
        g_strong = self._ig(post, q=0.95, n_labels=2)
        assert g_strong > g_weak

    def test_binary_hand_computed(self):
        # Uniform prior, q=0.9, L=2: H0 = ln 2; after one answer posterior is
        # (0.9, 0.1) either way → expected H = H(0.9).
        post = self._post([0.5, 0.5])
        h_bern = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        want = math.log(2) - h_bern
        assert self._ig(post, q=0.9, n_labels=2) == pytest.approx(want, rel=1e-9)

    def test_unanswered_labels_participate(self):
        # All mass on unanswered labels: still a proper distribution.
        post = self._post([0.4], n_un=3, p0=0.2)
        ig = self._ig(post, q=0.9, n_labels=4)
        assert np.isfinite(ig)
        assert ig > 0


@st.composite
def _posteriors(draw):
    """A batch of categorical cell posteriors with mixed label counts, some
    zero probabilities, and q anywhere in [0, 1] including the clip bounds."""
    posts, qs, labels = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        n_labels = draw(st.integers(2, 10))
        n_ans = draw(st.integers(1, n_labels))
        n_un = n_labels - n_ans
        w = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                          min_size=n_ans + 1, max_size=n_ans + 1))
        if sum(w[:n_ans]) + n_un * w[n_ans] <= 0:
            w = [1.0] * (n_ans + 1)
        total = sum(w[:n_ans]) + n_un * w[n_ans]
        posts.append(_Post(
            probs=np.array(w[:n_ans]) / total,
            n_unanswered=n_un,
            p0=w[n_ans] / total if n_un else 0.0,
        ))
        qs.append(draw(st.one_of(st.sampled_from([0.0, _EPS_Q, 1 - _EPS_Q, 1.0]),
                                 st.floats(0.0, 1.0))))
        labels.append(n_labels)
    return posts, qs, labels


class TestCatIGKernel:
    """The array kernel equals the per-cell reference bit for bit."""

    @given(_posteriors())
    @settings(max_examples=150, deadline=None)
    def test_equals_reference(self, batch):
        posts, qs, labels = batch
        want = [_cat_ig(p, q, n) for p, q, n in zip(posts, qs, labels)]
        assert _kernel(posts, qs, labels).tolist() == want

    def test_named_cases_in_one_call(self):
        def post(probs, n_un=0, p0=0.0):
            return _Post(np.asarray(probs, dtype=float), n_un, p0)

        wide = np.random.default_rng(4).random(9)
        total = wide.sum() + 0.5
        cases = [
            (post([0.5, 0.5]), 0.8, 2),  # n_labels = 2, all answered
            (post([0.7], n_un=2, p0=0.15), 0.9, 3),  # one answered label
            (post([0.2, 0.3, 0.5]), 0.6, 3),  # n_unanswered = 0
            (post([0.4, 0.6], n_un=3, p0=0.0), 0.0, 5),  # q at the lower clip
            (post([0.1, 0.2, 0.3], n_un=1, p0=0.4), 1.0, 4),  # q at the upper clip
            # 10 answered labels, one of them at zero: numpy sums pairwise.
            (post(np.r_[wide[:4], 0.0, wide[4:]] / total, 1, 0.5 / total), 0.7, 11),
        ]
        posts, qs, labels = map(list, zip(*cases))
        want = [_cat_ig(p, q, n) for p, q, n in cases]
        got = _kernel(posts, qs, labels)
        assert got.tolist() == want
        assert np.isfinite(got).all()


class TestGainsEqualReference:
    """Both policies score every cell of the tiny view exactly as the per-cell
    reference does."""

    @pytest.mark.parametrize("worker", [0, 3, 7, 19])
    def test_inherent(self, view, worker):
        got = InherentIGPolicy().gains(view, worker)
        assert _by_cell(view, got) == _ref_inherent_gains(view, worker)

    @pytest.mark.parametrize("worker", [0, 3, 7, 19])
    def test_structure_aware(self, view, worker):
        got = StructureAwarePolicy().gains(view, worker)
        assert _by_cell(view, got) == _ref_structure_gains(view, worker)

    def test_structure_aware_partial_history(self, partial_view):
        view2, w = partial_view
        got = StructureAwarePolicy().gains(view2, w)
        assert _by_cell(view2, got) == _ref_structure_gains(view2, w)
        assert got.tolist() != InherentIGPolicy().gains(view2, w).tolist()

    def test_worker_and_rows_beyond_state(self, view):
        # An unseen worker, and rows the state does not cover yet, take
        # 0.0 in log space.
        st = view.result.state
        short = EMState(st.ln_alpha[:20], st.ln_beta, st.ln_phi)
        view2 = dataclasses.replace(view, result=dataclasses.replace(view.result, state=short))
        unseen = len(st.ln_phi) + 5
        for worker in (0, unseen):
            for policy, ref in ((InherentIGPolicy(), _ref_inherent_gains),
                                (StructureAwarePolicy(), _ref_structure_gains)):
                assert _by_cell(view2, policy.gains(view2, worker)) == ref(view2, worker)


def _ref_cdas_terminated(view: AssignmentView) -> np.ndarray:
    """CDAS's confidence test as a loop over a pandas ``groupby`` of the
    cells, the code the array pass replaced."""
    term = np.zeros(view.n_cells, dtype=bool)
    a = view.answers
    cat = set(view.schema.categorical_idx)
    col_sd = {
        j: max(float(a.loc[a["col"] == j, "value"].std() or 1.0), 1e-9)
        for j in view.schema.continuous_idx
    }
    for (row, col), grp in a.groupby(["row", "col"]):
        n = len(grp)
        if n < 2:
            continue
        if col in cat:
            frac = grp["value"].round().value_counts().iloc[0] / n
            term[view.flat(row, col)] = frac >= assignment._P_TERM
        else:
            half = 1.96 * float(grp["value"].std(ddof=1) or 0.0) / np.sqrt(n)
            term[view.flat(row, col)] = half <= assignment._CI_FRAC * col_sd[col]
    return term


def _ref_askit_uncertainty(view: AssignmentView) -> np.ndarray:
    """AskIt!'s uncertainty as the same per-cell loop."""
    a = view.answers
    cat = set(view.schema.categorical_idx)
    col_sd = {
        j: max(float(a.loc[a["col"] == j, "value"].std(ddof=0) or 1.0), 1e-6)
        for j in view.schema.continuous_idx
    }
    unc = np.full(view.n_cells, np.inf)
    for (row, col), grp in a.groupby(["row", "col"]):
        if col in cat:
            p = grp["value"].round().value_counts(normalize=True).to_numpy()
            unc[view.flat(row, col)] = -float(np.sum(p * np.log(p)))
        else:
            if len(grp) >= 2:
                sd = float(grp["value"].std(ddof=0) or 0.0)
                sd = max(sd, 0.05 * col_sd[col])
            else:
                sd = col_sd[col]
            unc[view.flat(row, col)] = float(np.log(max(sd, 1e-6)))
    return unc


@pytest.fixture(scope="module")
def crowded_view(restaurant_ds):
    """Restaurant's answers, thinned, plus copies of those of rows 0-119
    under new worker ids: 0 to 16 answers per cell, in no order, so some
    per-cell sums have 8 terms or more (which numpy adds pairwise)."""
    a = restaurant_ds.answers
    dense = a[a["row"] < 120]
    parts = [a.sample(frac=0.3, random_state=0)]
    parts += [
        dense.sample(frac=0.9, random_state=k).assign(worker=dense["worker"] + 1000 * k)
        for k in (1, 2, 3)
    ]
    answers = pd.concat(parts, ignore_index=True).sample(frac=1.0, random_state=4)
    return AssignmentView(restaurant_ds.schema, restaurant_ds.n_rows, answers)


class TestVoteModelsEqualReference:
    """CDAS and AskIt! score every cell exactly as the per-cell loop does."""

    @pytest.mark.parametrize("which", ["view", "crowded_view"])
    def test_cdas_terminated(self, which, request):
        v = request.getfixturevalue(which)
        assert CdasPolicy()._terminated(v).tolist() == _ref_cdas_terminated(v).tolist()

    @pytest.mark.parametrize("which", ["view", "crowded_view"])
    def test_askit_uncertainty(self, which, request):
        v = request.getfixturevalue(which)
        assert AskItPolicy()._uncertainty(v).tolist() == _ref_askit_uncertainty(v).tolist()


class TestUniformEntropy:
    def test_covers_all_cells(self, view, tiny_ds):
        ent = uniform_entropy(view)
        assert len(ent) == tiny_ds.n_cells
        assert not np.isnan(ent).any()

    def test_categorical_entropy_nonnegative(self, view, tiny_ds):
        ent = uniform_entropy(view).reshape(view.n_rows, -1)
        assert (ent[:, tiny_ds.schema.categorical_idx] >= -1e-12).all()


@pytest.mark.parametrize("kind", ["cont", "cat"])
def test_policies_on_table_with_one_kind_of_answers(tiny_ds, kind):
    """With no answers of the other kind, its cells hold no posterior (an
    empty ``CatCells``, or an all-NaN ``t_phi``), and the policies pick
    only answered cells."""
    answers = restrict_answers(tiny_ds.answers, tiny_ds.schema, kind)
    res = tcrowd_em(answers, tiny_ds.schema)
    assert (len(res.cat_cells.cells) == 0) == (kind == "cont")
    assert np.isnan(res.t_phi).all() == (kind == "cat")
    view = AssignmentView(
        schema=tiny_ds.schema, n_rows=30, answers=answers, result=res,
        error_model=fit_error_model(answers, res.estimate, tiny_ds.schema),
    )
    answered = set(zip(answers["row"].tolist(), answers["col"].tolist()))
    assert set(_by_cell(view, res.estimate)) == answered
    assert set(_by_cell(view, uniform_entropy(view))) == answered
    for policy in (EntropyPolicy(), InherentIGPolicy(), StructureAwarePolicy()):
        picks = policy.pick(view, 0, 5)
        assert len(picks) == 5 and set(picks) <= answered
    for policy, ref in ((InherentIGPolicy(), _ref_inherent_gains),
                        (StructureAwarePolicy(), _ref_structure_gains)):
        assert _by_cell(view, policy.gains(view, 0)) == ref(view, 0)


class TestPolicies:
    @pytest.mark.parametrize(
        "policy",
        [
            RandomPolicy(0),
            LoopingPolicy(),
            EntropyPolicy(),
            InherentIGPolicy(),
            StructureAwarePolicy(),
            CdasPolicy(seed=0),
            AskItPolicy(),
        ],
        ids=["random", "looping", "entropy", "inherent", "struct", "cdas", "askit"],
    )
    def test_picks_k_unanswered_cells(self, policy, view):
        worker = 0
        cells = policy.pick(view, worker, 5)
        assert len(cells) == 5
        assert len(set(cells)) == 5
        assert not set(cells) & _answered(view, worker)

    def test_random_respects_k_larger_than_candidates(self, view):
        # Worker who answered everything gets an empty assignment.
        n_cols = view.schema.n_cols
        every = pd.DataFrame({
            "worker": 0,
            "row": np.repeat(np.arange(view.n_rows), n_cols),
            "col": np.tile(np.arange(n_cols), view.n_rows),
            "value": 0.0,
        })
        others = view.answers[view.answers["worker"] != 0]
        view2 = dataclasses.replace(view, answers=pd.concat([others, every]))
        assert len(view2.candidates(0)) == 0
        assert RandomPolicy(0).pick(view2, 0, 3) == []

    def test_looping_prefers_least_answered(self, view):
        counts = view.answer_counts().reshape(view.n_rows, -1)
        picks = LoopingPolicy().pick(view, 0, 3)
        all_counts = counts.ravel()[view.candidates(0)]
        assert max(counts[c] for c in picks) <= all_counts.min() + 1

    def test_equal_keys_picked_in_row_major_order(self, view):
        # Every cell of the tiny view has 3 answers, so Looping's keys all tie.
        assert (view.answer_counts() == 3).all()
        cand = view.candidates(0)
        assert LoopingPolicy().pick(view, 0, 6) == view.cells(cand[:6])
        # Gains that tie at two levels: the three top cells, listed out of
        # order, come first in row-major order, then the rest in row-major.
        policy = InherentIGPolicy()
        gains = np.zeros(view.n_cells)
        top = cand[[40, 3, 25]]
        gains[top] = 1.0
        policy.gains = lambda v, w: gains
        rest = cand[gains[cand] == 0.0]
        assert policy.pick(view, 0, 6) == view.cells(np.r_[np.sort(top), rest[:3]])

    def test_inherent_ig_all_finite(self, view):
        ig = InherentIGPolicy().gains(view, 0)
        assert np.isfinite(ig).all()
        assert len(ig) == 30 * 4

    def test_inherent_ig_picks_positive_gain(self, view):
        ig = InherentIGPolicy().gains(view, 0).reshape(view.n_rows, -1)
        picks = InherentIGPolicy().pick(view, 0, 5)
        pick_gain = min(ig[c] for c in picks)
        rest = [ig[c] for c in view.cells(view.candidates(0)) if c not in picks]
        assert pick_gain >= max(rest) - 1e-12

    def test_good_worker_gets_more_expected_gain(self, view, tiny_ds):
        ig_policy = InherentIGPolicy()
        phi = view.result.state.ln_phi
        best_w = int(np.argmin(phi))
        worst_w = int(np.argmax(phi))
        g_best = ig_policy.gains(view, best_w).sum()
        g_worst = ig_policy.gains(view, worst_w).sum()
        assert g_best > g_worst

    def test_structure_aware_differs_from_inherent(self, partial_view):
        view2, w = partial_view
        base = InherentIGPolicy().gains(view2, w)
        sa = StructureAwarePolicy().gains(view2, w)
        diffs = np.abs(base - sa).reshape(view2.n_rows, -1)
        assert diffs.max() > 0
        # And only cells in rows with partial history changed.
        touched_rows = {r for (r, c) in _answered(view2, w)}
        assert set(np.flatnonzero(diffs.max(axis=1) > 0)) <= touched_rows

    def test_structure_aware_without_model_equals_inherent(self, view):
        view2 = dataclasses.replace(view, error_model=None)
        w = 0
        assert StructureAwarePolicy().gains(view2, w).tolist() == InherentIGPolicy().gains(
            view2, w
        ).tolist()

    def test_cdas_terminates_confident_cells(self, view, monkeypatch):
        monkeypatch.setattr(assignment, "_P_TERM", 0.5)
        pol = CdasPolicy(seed=0)
        term = pol._terminated(view).reshape(view.n_rows, -1)
        # With 3 answers/cell, plenty of categorical cells have a ≥ 2/3
        # majority → terminated.
        assert term.any()
        picks = pol.pick(view, 0, 5)
        assert not any(term[c] for c in picks)

    def test_entropy_policy_prefers_continuous(self, view, tiny_ds):
        # §5.1/§6.4.2: raw differential entropy of wide-domain continuous
        # cells dominates Shannon entropy of categorical cells.
        picks = EntropyPolicy().pick(view, 0, 10)
        cont = sum(1 for _, c in picks if c in tiny_ds.schema.continuous_idx)
        assert cont >= 8


class TestContinuousIGClosedForm:
    def test_matches_formula(self, view):
        first = np.flatnonzero(~np.isnan(view.result.t_phi))[0]
        cell = divmod(int(first), view.schema.n_cols)
        st = view.result.state
        v_u = float(
            np.exp(st.ln_alpha[cell[0]] + st.ln_beta[cell[1]] + st.ln_phi[0])
        )
        t_phi = float(view.result.t_phi[first])
        want = 0.5 * math.log(t_phi / (1.0 / (1.0 / t_phi + 1.0 / v_u)))
        ig = InherentIGPolicy().gains(view, 0).reshape(view.n_rows, -1)[cell]
        assert ig == pytest.approx(want, rel=1e-9)

    def test_gain_decreases_with_more_answers(self):
        # Adding answers shrinks t_phi; the next answer's IG must shrink.
        igs = []
        for t_phi in [4.0, 2.0, 1.0, 0.5]:
            igs.append(0.5 * math.log(t_phi / (1 / (1 / t_phi + 1 / 1.0))))
        assert all(a > b for a, b in zip(igs, igs[1:]))
