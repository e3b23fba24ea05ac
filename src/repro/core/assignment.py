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

from dataclasses import dataclass, field

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

    ``result`` is the latest T-Crowd inference output (None for baseline
    policies that do not use it); ``error_model`` the fitted §5.2 model;
    ``answered`` maps worker -> set of (row, col) already answered (a worker
    never gets the same task twice); ``counts`` is answers-per-cell.
    """

    schema: TableSchema
    n_rows: int
    answers: pd.DataFrame
    result: TCrowdResult | None = None
    error_model: ErrorModel | None = None
    answered: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def all_cells(self) -> list[tuple[int, int]]:
        return [
            (i, j) for i in range(self.n_rows) for j in range(self.schema.n_cols)
        ]

    def candidates(self, worker: int) -> list[tuple[int, int]]:
        done = self.answered.get(worker, set())
        return [c for c in self.all_cells() if c not in done]


class RandomPolicy:
    """Uniform random assignment among the worker's unanswered cells."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        cand = view.candidates(worker)
        if not cand:
            return []
        idx = self.rng.choice(len(cand), size=min(k, len(cand)), replace=False)
        return [cand[i] for i in idx]


class LoopingPolicy:
    """Round-robin: the cells with the fewest answers, in row/col order."""

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        cand = view.candidates(worker)
        cand.sort(key=lambda c: (view.counts.get(c, 0), c))
        return cand[:k]


def _cont_entropy(t_phi: float) -> float:
    return 0.5 * float(np.log(2.0 * np.pi * np.e * max(t_phi, 1e-300)))


def uniform_entropy(view: AssignmentView) -> dict:
    """H(T_ij) per cell (§5.1): differential for continuous, Shannon for
    categorical. NOT comparable across types — used by EntropyPolicy to
    reproduce the paper's bias demonstration."""
    ent: dict = {}
    for rec in view.result.cont_cells.itertuples():
        ent[(int(rec.row), int(rec.col))] = _cont_entropy(float(rec.t_phi))
    cat = view.result.cat_cells
    ent.update(zip(zip(cat.rows.tolist(), cat.cols.tolist()), cat.entropy().tolist()))
    return ent


class EntropyPolicy:
    """Greedy max uniform-entropy (the flawed straw-man of §5.1)."""

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        ent = uniform_entropy(view)
        cand = view.candidates(worker)
        cand.sort(key=lambda c: -ent.get(c, -np.inf))
        return cand[:k]


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
    variance ``v``."""
    return 0.5 * np.log(t_phi / (1.0 / (1.0 / t_phi + 1.0 / v)))


class _Cells:
    """One kind of cell of a :class:`TCrowdResult` as arrays, one row per
    cell: ``keys`` are the ``(row, col)`` pairs, ``data`` holds the per-cell
    posterior arrays."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, **data):
        self.keys = list(zip(rows.tolist(), cols.tolist()))
        self.rows, self.cols, self.data = rows, cols, data

    def positions(self) -> dict:
        """``(row, col)`` -> row of the arrays."""
        return {cell: i for i, cell in enumerate(self.keys)}

    def take(self, idx) -> dict:
        return {k: v[idx] for k, v in self.data.items()}


def _answer_var(res: TCrowdResult, worker: int, cells: _Cells) -> np.ndarray:
    """``exp(ln α_i + ln β_j + ln φ_u)`` per cell; a row or worker beyond the
    state takes 0.0 in log space."""
    st = res.state
    ln_a = np.zeros(len(cells.rows))
    known = cells.rows < len(st.ln_alpha)
    ln_a[known] = st.ln_alpha[cells.rows[known]]
    ln_p = st.ln_phi[worker] if worker < len(st.ln_phi) else 0.0
    return np.exp(ln_a + st.ln_beta[cells.cols] + ln_p)


class InherentIGPolicy:
    """Eq. 6: greedy top-K by inherent information gain."""

    def gains(self, view: AssignmentView, worker: int) -> dict:
        return self._inherent(view, worker)[0]

    def _inherent(self, view: AssignmentView, worker: int):
        """The gain of every cell, with the cell arrays it was scored from."""
        res = view.result
        cc, c = res.cont_cells, res.cat_cells
        cont = _Cells(cc["row"].to_numpy(np.int64), cc["col"].to_numpy(np.int64),
                      t_phi=cc["t_phi"].to_numpy(np.float64))
        cat = _Cells(c.rows, c.cols, probs=c.probs, n_ans=c.n_ans, n_un=c.n_un,
                     p0=c.p0, n_labels=c.n_labels)
        v = _answer_var(res, worker, cont)
        ig = dict(zip(cont.keys, _cont_ig(cont.data["t_phi"], v).tolist()))
        q = erf(EPS / np.sqrt(2.0 * _answer_var(res, worker, cat)))
        ig.update(zip(cat.keys, cat_ig(**cat.data, q=q).tolist()))
        return ig, cat, cont

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        ig = self.gains(view, worker)
        cand = view.candidates(worker)
        cand.sort(key=lambda c: -ig.get(c, -np.inf))
        return cand[:k]


class StructureAwarePolicy(InherentIGPolicy):
    """Eq. 7: condition the worker's effective quality on their observed
    errors in the same row before computing the information gain."""

    def _observed_errors(self, view: AssignmentView, worker: int) -> dict:
        """row -> {col: error vs current truth} for this worker."""
        sub = view.answers[view.answers["worker"] == worker]
        if sub.empty or view.result is None:
            return {}
        errs = compute_errors(sub, view.result.truth, view.schema)
        out: dict = {}
        for row, col, err in zip(*(errs[f].tolist() for f in ("row", "col", "err"))):
            out.setdefault(int(row), {})[int(col)] = float(err)
        return out

    def gains(self, view: AssignmentView, worker: int) -> dict:
        ig, cat, cont = self._inherent(view, worker)
        model = view.error_model
        if model is None:
            return ig
        cat_at, cont_at = cat.positions(), cont.positions()
        cat_idx, q_eff, cont_idx, v_eff = [], [], [], []
        for row, errs in self._observed_errors(view, worker).items():
            for j in range(view.schema.n_cols):
                cell = (row, j)
                if cell not in ig or j in errs:
                    continue
                dist = combined_conditional(model, j, errs)
                if dist is None:
                    continue
                if isinstance(dist, Bernoulli):
                    cat_idx.append(cat_at[cell])
                    q_eff.append(1.0 - dist.p_wrong)
                else:
                    assert isinstance(dist, Normal)
                    cont_idx.append(cont_at[cell])
                    # Effective answer variance: conditional spread plus the
                    # predictable offset (a biased answer is less informative).
                    v_eff.append(max(dist.var + dist.mu**2, 1e-12))
        if cat_idx:
            g = cat_ig(**cat.take(cat_idx), q=np.array(q_eff))
            ig.update(zip([cat.keys[i] for i in cat_idx], g.tolist()))
        if cont_idx:
            g = _cont_ig(cont.take(cont_idx)["t_phi"], np.array(v_eff))
            ig.update(zip([cont.keys[i] for i in cont_idx], g.tolist()))
        return ig


class CdasPolicy:
    """CDAS: cells whose estimate is confident are terminated; the rest are
    assigned at random. Confidence comes from the simple vote/CI model CDAS
    uses (not from T-Crowd): majority fraction ≥ ``p_term`` (categorical) or
    mean-CI half-width ≤ ``ci_frac`` × column std (continuous)."""

    def __init__(self, p_term: float = 0.8, ci_frac: float = 0.25, seed: int = 0):
        self.p_term = p_term
        self.ci_frac = ci_frac
        self.rng = np.random.default_rng(seed)

    def _terminated(self, view: AssignmentView) -> set:
        term = set()
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
                if frac >= self.p_term:
                    term.add((int(row), int(col)))
            else:
                half = 1.96 * float(grp["value"].std(ddof=1) or 0.0) / np.sqrt(n)
                if half <= self.ci_frac * col_sd[col]:
                    term.add((int(row), int(col)))
        return term

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        term = self._terminated(view)
        cand = [c for c in view.candidates(worker) if c not in term]
        if not cand:
            cand = view.candidates(worker)
        if not cand:
            return []
        idx = self.rng.choice(len(cand), size=min(k, len(cand)), replace=False)
        return [cand[i] for i in idx]


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

    def pick(self, view: AssignmentView, worker: int, k: int) -> list[tuple[int, int]]:
        a = view.answers
        cat = set(view.schema.categorical_idx)
        col_sd = {
            j: max(float(a.loc[a["col"] == j, "value"].std(ddof=0) or 1.0), 1e-6)
            for j in view.schema.continuous_idx
        }
        unc: dict = {}
        for (row, col), grp in a.groupby(["row", "col"]):
            if col in cat:
                p = grp["value"].round().value_counts(normalize=True).to_numpy()
                unc[(int(row), int(col))] = -float(np.sum(p * np.log(p)))
            else:
                if len(grp) >= 2:
                    sd = float(grp["value"].std(ddof=0) or 0.0)
                    sd = max(sd, 0.05 * col_sd[col])  # agreement ≠ certainty
                else:
                    sd = col_sd[col]
                unc[(int(row), int(col))] = float(np.log(max(sd, 1e-6)))
        cand = view.candidates(worker)
        cand.sort(key=lambda c: -unc.get(c, np.inf))
        return cand[:k]
