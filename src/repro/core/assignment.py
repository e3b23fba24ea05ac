"""Online task assignment (paper §5): policies that pick cells for an
incoming worker.

All policies implement ``pick(view, worker, k) -> list[(row, col)]`` where
``view`` is an :class:`AssignmentView` of the current answer set and (for
the model-based policies) the latest T-Crowd inference result. Multi-task
batches (§5.3) use the greedy top-K approximation the paper proposes.

Policies:

* :class:`RandomPolicy` — CDAS-style random choice (also used for the CRH /
  CATD assignment rows of Fig. 2);
* :class:`LoopingPolicy` — round-robin over the least-answered cells;
* :class:`EntropyPolicy` — AskIt!-style max-uncertainty using the *uniform
  entropy* H (differential vs Shannon — intentionally not comparable across
  datatypes; the paper shows it biases toward continuous tasks);
* :class:`InherentIGPolicy` — Eq. 6 delta-entropy information gain with the
  paper's local approximation (only ``T_ij`` is updated by the hypothetical
  answer). For continuous cells the Gaussian posterior variance does not
  depend on the observed value, so the expected entropy drop is the closed
  form ``½ ln(T_φ / T_φ')``;
* :class:`StructureAwarePolicy` — Eq. 7: the incoming worker's effective
  quality on a cell is adjusted by the conditional error distribution given
  the worker's observed errors on the same row;
* :class:`CdasPolicy` — CDAS [20]: terminate confident cells, assign
  uniformly among the rest;
* :class:`AskItPolicy` — AskIt! [5]: highest-uncertainty cell under its own
  simple (vote/variance-based) uncertainty model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema
from ..crowd.stats import erf
from .correlation import (
    Bernoulli,
    ErrorModel,
    Normal,
    combined_conditional,
    compute_errors,
)
from .em import EPS, TCrowdResult, entropy_rows, row_sum

_EPS_Q = 1e-6


@dataclass
class AssignmentView:
    """Everything a policy may look at when assigning tasks.

    ``answers`` is the answer set so far (a worker never gets the same task
    twice); ``result`` the latest T-Crowd inference output over the view's
    ``n_rows`` rows (None for baseline policies that do not use it);
    ``error_model`` the fitted §5.2 model. A cell ``(row, col)`` is
    addressed by its flat index ``row * n_cols + col``, as in the result's
    per-cell arrays.
    """

    schema: TableSchema
    n_rows: int
    answers: pd.DataFrame
    result: TCrowdResult | None = None
    error_model: ErrorModel | None = None

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.schema.n_cols

    def flat(self, rows, cols) -> np.ndarray:
        """Flat index of each cell ``(rows[i], cols[i])``."""
        return np.asarray(rows, np.int64) * self.schema.n_cols + np.asarray(cols, np.int64)

    def cells(self, flat: np.ndarray) -> list[tuple[int, int]]:
        """``(row, col)`` of each flat index."""
        return [divmod(int(i), self.schema.n_cols) for i in flat]

    def answer_counts(self) -> np.ndarray:
        """Answers per cell, by flat index."""
        a = self.answers
        return np.bincount(self.flat(a["row"], a["col"]), minlength=self.n_cells)

    def candidates(self, worker: int) -> np.ndarray:
        """Flat indices of the cells ``worker`` has not answered, row-major."""
        a = self.answers
        free = np.ones(self.n_cells, dtype=bool)
        free[self.flat(a["row"], a["col"])[a["worker"].to_numpy() == worker]] = False
        return np.flatnonzero(free)


def _top_k(view: AssignmentView, worker: int, key: np.ndarray, k: int) -> list[tuple[int, int]]:
    """The ``k`` candidate cells of ``worker`` with the smallest ``key`` (one
    entry per flat cell; NaN sorts last). The sort is stable, so equal keys
    keep row-major order."""
    cand = view.candidates(worker)
    return view.cells(cand[np.argsort(key[cand], kind="stable")[:k]])


def _draw(rng: np.random.Generator, view: AssignmentView, cand: np.ndarray, k: int):
    """``min(k, len(cand))`` of the flat cells ``cand``, drawn uniformly
    without replacement."""
    if not len(cand):
        return []
    return view.cells(cand[rng.choice(len(cand), size=min(k, len(cand)), replace=False)])


class RandomPolicy:
    """Uniform random assignment among the worker's unanswered cells."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        return _draw(self.rng, view, view.candidates(worker), k)


class LoopingPolicy:
    """Round-robin: the cells with the fewest answers, in row/col order."""

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        return _top_k(view, worker, view.answer_counts(), k)


def uniform_entropy(view: AssignmentView) -> np.ndarray:
    """H(T_ij) per flat cell (§5.1): differential for continuous, Shannon
    for categorical; NaN where the result holds no posterior. NOT
    comparable across types — used by EntropyPolicy to reproduce the
    paper's bias demonstration."""
    res = view.result
    ent = 0.5 * np.log(2.0 * np.pi * np.e * np.maximum(res.t_phi, 1e-300))
    ent[res.cat_cells.cells] = res.cat_cells.entropy()
    return ent


class EntropyPolicy:
    """Greedy max uniform-entropy (the flawed straw-man of §5.1)."""

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        return _top_k(view, worker, -uniform_entropy(view), k)


def cat_ig(
    probs: np.ndarray,
    n_ans: np.ndarray,
    n_un: np.ndarray,
    p0: np.ndarray,
    n_labels: np.ndarray,
    q: np.ndarray,
) -> np.ndarray:
    """Expected Shannon-entropy drop of categorical cells for a worker of
    per-cell accuracy ``q`` (Eq. 6, local update), one cell per row.

    Row ``i`` is a cell posterior: ``probs[i, :n_ans[i]]`` over its answered
    labels (zero beyond), and ``n_un[i]`` unanswered labels at ``p0[i]``
    each, out of ``n_labels[i]``. The worker's possible answers are
    enumerated over the answered labels plus one representative unanswered
    label (all unanswered labels are exchangeable).
    """
    q = np.clip(q, _EPS_Q, 1.0 - _EPS_Q)
    wrong = (1.0 - q) / (n_labels - 1)
    n_cells, a_max = probs.shape
    new_p0 = p0 * wrong
    exp_h = np.zeros(n_cells)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = entropy_rows(probs, p0, n_un)
        # The worker answers answered label idx: posterior ∝ prior ×
        # likelihood; the predictive probability of that answer equals the
        # posterior normaliser, so one pass gives both.
        for idx in range(a_max):
            new = probs * wrong[:, None]
            new[:, idx] = probs[:, idx] * q
            z = row_sum(new, n_ans) + n_un * new_p0  # == P(answer = idx)
            h = entropy_rows(new / z[:, None], new_p0 / z, n_un)
            exp_h = np.where((idx < n_ans) & (z > 0), exp_h + z * h, exp_h)
        # Or one of the n_un exchangeable unanswered labels: the chosen label
        # gets likelihood q and leaves the pool, the other n_un−1 stay at
        # ``wrong``; all n_un cases are identical.
        new = np.zeros((n_cells, a_max + 1))
        new[:, :a_max] = probs * wrong[:, None]
        new[np.arange(n_cells), n_ans] = p0 * q
        z = row_sum(new, n_ans + 1) + (n_un - 1) * new_p0
        h = entropy_rows(new / z[:, None], new_p0 / z, n_un - 1)
        exp_h = np.where((n_un > 0) & (z > 0), exp_h + n_un * z * h, exp_h)
    return h0 - exp_h


def _cont_ig(t_phi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Closed-form continuous gain ``½ ln(T_φ / T_φ′)`` of one answer of
    variance ``v``; NaN where ``t_phi`` is."""
    return 0.5 * np.log(t_phi / (1.0 / (1.0 / t_phi + 1.0 / v)))


class InherentIGPolicy:
    """Eq. 6: greedy top-K by inherent information gain."""

    def gains(self, view: AssignmentView, worker: int) -> np.ndarray:
        """The gain of every flat cell; NaN where the result holds no
        posterior."""
        q, v = self._answer_quality(view, worker)
        c = view.result.cat_cells
        ig = _cont_ig(view.result.t_phi, v)
        ig[c.cells] = cat_ig(c.probs, c.n_ans, c.n_un, c.p0, c.n_labels, q[c.cells])
        return ig

    def _answer_quality(self, view: AssignmentView, worker: int):
        """``(q, v)`` per flat cell: the worker's answer variance
        ``v = exp(ln α_i + ln β_j + ln φ_u)`` and categorical accuracy
        ``q = erf(ε/√(2v))``. A row or worker beyond the state takes 0.0 in
        log space."""
        st = view.result.state
        ln_a = np.zeros(view.n_rows)
        known = min(view.n_rows, len(st.ln_alpha))
        ln_a[:known] = st.ln_alpha[:known]
        ln_p = st.ln_phi[worker] if worker < len(st.ln_phi) else 0.0
        v = np.exp(ln_a[:, None] + st.ln_beta[None, :] + ln_p).ravel()
        return erf(EPS / np.sqrt(2.0 * v)), v

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        return _top_k(view, worker, -self.gains(view, worker), k)


class StructureAwarePolicy(InherentIGPolicy):
    """Eq. 7: condition the worker's effective quality on their observed
    errors in the same row before computing the information gain."""

    def _observed_errors(self, view: AssignmentView, worker: int) -> dict:
        """row -> {col: error vs current truth} for this worker, in answer order."""
        if view.result is None:
            return {}
        mine = view.answers["worker"].to_numpy() == worker
        row, col = (view.answers[f].to_numpy(np.int64)[mine].tolist() for f in ("row", "col"))
        errs = compute_errors(view.answers, view.result.estimate, view.schema)[mine]
        out: dict = {}
        for i, j, err in zip(row, col, errs.tolist()):
            out.setdefault(i, {})[j] = err
        return out

    def _answer_quality(self, view: AssignmentView, worker: int):
        """The inherent ``(q, v)``, overwritten at each unanswered cell of a
        row the worker has answered in by the §5.2 conditional."""
        q, v = super()._answer_quality(view, worker)
        model = view.error_model
        if model is None:
            return q, v
        n_cols = view.schema.n_cols
        for row, errs in self._observed_errors(view, worker).items():
            for j in range(n_cols):
                if j in errs:
                    continue
                dist = combined_conditional(model, j, errs)
                if dist is None:
                    continue
                if isinstance(dist, Bernoulli):
                    q[row * n_cols + j] = 1.0 - dist.p_wrong
                else:
                    assert isinstance(dist, Normal)
                    # Effective answer variance: conditional spread plus the
                    # predictable offset (a biased answer is less informative).
                    v[row * n_cols + j] = max(dist.var + dist.mu**2, 1e-12)
        return q, v


@dataclass(frozen=True)
class _CellVotes:
    """Per answered cell, by ascending flat index: the answer count, the
    share of its most frequent rounded label, the vote entropy of its
    rounded labels, and the standard deviation of its answers."""

    cells: np.ndarray
    n: np.ndarray
    top_share: np.ndarray
    entropy: np.ndarray
    sd: np.ndarray


def _padded(group: np.ndarray, size: np.ndarray, values: np.ndarray, width: int):
    """``values`` one row per group, zero-padded to ``width``; ``group`` is
    ascending, and group ``g`` holds ``size[g]`` values."""
    out = np.zeros((len(size), width))
    out[group, np.arange(len(group)) - (np.cumsum(size) - size)[group]] = values
    return out


def _cell_votes(view: AssignmentView, ddof: int) -> _CellVotes:
    """The :class:`_CellVotes` of every answered cell in one array pass.

    The answers are stable-sorted by flat cell, so each cell keeps them in
    answer order, as a pandas ``groupby`` does, and every per-cell sum is a
    :func:`~repro.core.em.row_sum`, so the bits are those of the per-cell
    pandas calls: the label tallies in ``value_counts`` order (count
    descending) and the std of pandas' two-pass ``nanvar`` (mean, squared
    deviations, their sum / (n − ``ddof``); NaN where n ≤ ``ddof``)."""
    a = view.answers
    flat = view.flat(a["row"], a["col"])
    order = np.argsort(flat, kind="stable")
    vals = a["value"].to_numpy(np.float64)[order]
    cells, inv, n = np.unique(flat[order], return_inverse=True, return_counts=True)
    width = n.max(initial=1)

    mean = row_sum(_padded(inv, n, vals, width), n) / n
    sq_dev = row_sum(_padded(inv, n, (mean[inv] - vals) ** 2, width), n)
    with np.errstate(divide="ignore", invalid="ignore"):
        sd = np.where(n > ddof, np.sqrt(sq_dev / (n - ddof)), np.nan)

    pairs, tally = np.unique(np.column_stack([inv, np.round(vals)]), axis=0, return_counts=True)
    pair_cell = pairs[:, 0].astype(np.int64)
    by_count = np.lexsort((-tally, pair_cell))
    pair_cell, tally = pair_cell[by_count], tally[by_count]
    n_labels = np.bincount(pair_cell, minlength=len(cells))
    share = _padded(pair_cell, n_labels, tally / n[pair_cell], width)
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = -row_sum(share * np.log(share), n_labels)
    return _CellVotes(cells, n, share[:, 0], entropy, sd)


def _column_sd(view: AssignmentView, ddof: int, floor: float) -> np.ndarray:
    """Per column, the std of its answers, 1.0 where that is 0 and at least
    ``floor``; NaN for a column with too few answers."""
    a = view.answers
    sd = np.full(view.schema.n_cols, np.nan)
    for j in view.schema.continuous_idx:
        sd[j] = max(float(a.loc[a["col"] == j, "value"].std(ddof=ddof) or 1.0), floor)
    return sd


_P_TERM = 0.8  # CDAS terminates a categorical cell at this majority share
_CI_FRAC = 0.25  # ... and a continuous one at this CI half-width / column std


class CdasPolicy:
    """CDAS: cells whose estimate is confident are terminated; the rest are
    assigned at random. Confidence comes from the simple vote/CI model CDAS
    uses (not from T-Crowd): majority fraction ≥ ``_P_TERM`` (categorical)
    or mean-CI half-width ≤ ``_CI_FRAC`` × column std (continuous), for a
    cell with two answers or more."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def _terminated(self, view: AssignmentView) -> np.ndarray:
        """Flat mask of the terminated cells."""
        v = _cell_votes(view, ddof=1)
        col = v.cells % view.schema.n_cols
        half = 1.96 * v.sd / np.sqrt(v.n)
        confident = np.where(
            np.isin(col, view.schema.categorical_idx),
            v.top_share >= _P_TERM,
            half <= _CI_FRAC * _column_sd(view, 1, 1e-9)[col],
        )
        term = np.zeros(view.n_cells, dtype=bool)
        term[v.cells] = (v.n >= 2) & confident
        return term

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        cand = view.candidates(worker)
        live = cand[~self._terminated(view)[cand]]
        return _draw(self.rng, view, live if len(live) else cand, k)


class AskItPolicy:
    """AskIt!: greedy max-uncertainty with a simple entropy-like measure —
    vote entropy for categorical cells, ln(spread) for continuous cells.

    The two are deliberately NOT calibrated against each other: the
    differential-entropy-like continuous measure on raw column scales
    dwarfs the Shannon vote entropy, so AskIt! keeps selecting continuous
    tasks first (its MNAD drops fast while the error rate stays high) —
    exactly the behaviour §6.3 reports for it. Under-sampled continuous
    cells (< 2 answers) fall back to the column-level spread.
    """

    def _uncertainty(self, view: AssignmentView) -> np.ndarray:
        """Per flat cell; ``+inf`` for an unanswered cell, the most
        uncertain."""
        v = _cell_votes(view, ddof=0)
        col = v.cells % view.schema.n_cols
        col_sd = _column_sd(view, 0, 1e-6)[col]
        # Agreement is not certainty: a cell's spread is at least 5 % of its column's.
        sd = np.where(v.n >= 2, np.maximum(v.sd, 0.05 * col_sd), col_sd)
        unc = np.full(view.n_cells, np.inf)
        unc[v.cells] = np.where(
            np.isin(col, view.schema.categorical_idx),
            v.entropy,
            np.log(np.maximum(sd, 1e-6)),
        )
        return unc

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        return _top_k(view, worker, -self._uncertainty(view), k)
