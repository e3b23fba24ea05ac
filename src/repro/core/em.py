"""T-Crowd truth inference (paper §4) — the numpy kernel.

Implements the unified worker-quality EM:

* worker ``u`` has one inherent variance ``φ_u``; cell difficulty factors as
  ``α_i β_j``; the per-answer variance is ``v = α_i β_j φ_u`` (§4.2);
* continuous answers: ``a ~ N(T̂, v)`` (Eq. 1); categorical accuracy
  ``q = erf(ε/√(2v))`` with the wrong-answer mass uniform over the other
  labels (Eqs. 2–3);
* E-step (Eq. 4): Gaussian posterior ``(T_μ, T_φ)`` per continuous cell with
  per-column empirical prior; label posterior per categorical cell;
* M-step (Eq. 5): gradient ascent on ``Q(α, β, φ)`` in log-parameter space,
  with per-answer gradients scatter-added to their row/column/worker.

All of Algorithm 1 is written once, here, and the Spark engine
(`core/spark_em.py`) reuses it: :func:`init_params` turns per-column answer
moments (:func:`column_moments` here, one aggregation there) into the
priors and the starting parameters, :func:`run_estep` is the E-step (the
Spark engine runs it on each column's answers inside ``applyInPandas``),
:func:`em_loop` alternates an E-step with :func:`m_step` until no
log-parameter moves more than ``TOL``, and :func:`worker_quality` reports
``q_u``. The two engines agree to float tolerance (tested in
tests/test_spark_em.py).

Identifiability: ``α β φ`` is invariant under rescaling, so after each
M-step we renormalise ``mean(ln α) = mean(ln φ) = 0``, folding both scales
into β (DESIGN.md §5).

Work that depends only on the answers runs once per :func:`tcrowd_em` call.
:class:`AnswerLayout` holds the id arrays, their split into continuous and
categorical answers and, per column, the cell grouping (for a categorical
column, also the grouping of answers into distinct ``(row, label)`` pairs),
so each E-step runs only the array kernels. The E-steps inside the loop
return just the M-step statistics; only the final one fills the per-cell
arrays of the result and its :class:`CatCells` record (DESIGN.md §4).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema, validate_answers
from ..crowd.stats import erf

_Q_CLIP = 1e-9
_LN_CLAMP = 14.0

# The model's constants, read by both engines and the assignment policies;
# only MAX_ITER is a default a caller may override (DESIGN.md §5).
EPS = 1.0  # ε of Eq. 2 (DESIGN.md §5)
MAX_ITER = 40
TOL = 1e-3  # EM stops when no log-parameter moves more than this
GRAD_ITERS = 25  # gradient steps per M-step
LR0 = 0.3  # first gradient step size of an M-step
M_TOL = 1e-5  # an M-step stops when no log-parameter moves more than this
REG_ALPHA = 2.0  # ridge on ln α_i (see q_objective)
REG_PHI = 0.5  # ridge on ln φ_u


@dataclass
class EMState:
    """Log-parameters of the model (positivity by construction)."""

    ln_alpha: np.ndarray  # (N,)
    ln_beta: np.ndarray  # (M,)
    ln_phi: np.ndarray  # (U,)

    def copy(self) -> "EMState":
        return EMState(self.ln_alpha.copy(), self.ln_beta.copy(), self.ln_phi.copy())


def max_move(a: EMState, b: EMState) -> float:
    """Largest absolute change of any log-parameter between two states."""
    return max(
        np.abs(a.ln_alpha - b.ln_alpha).max(initial=0.0),
        np.abs(a.ln_beta - b.ln_beta).max(initial=0.0),
        np.abs(a.ln_phi - b.ln_phi).max(initial=0.0),
    )


def row_sum(m: np.ndarray, width: np.ndarray) -> np.ndarray:
    """``np.sum(m[i, :width[i]])`` for every row ``i``, bit for bit.

    numpy sums short vectors left to right but longer ones (8 or more
    terms) pairwise, so the order depends on the vector's length. Each group
    of rows of equal width is therefore reduced by numpy itself over exactly
    that width."""
    out = np.zeros(len(m))
    for w in np.unique(width):
        sel = width == w
        out[sel] = m[sel, :w].sum(axis=1)
    return out


def entropy_rows(p: np.ndarray, p_un: np.ndarray, n_un: np.ndarray) -> np.ndarray:
    """Shannon entropy per row of the positive entries of ``p`` plus ``n_un``
    labels at ``p_un`` each: the entropy of a categorical cell posterior.

    The positive terms are moved to the front of their row, in order, so
    each row sums exactly its positive terms, in the order a per-cell sum
    over them would."""
    pos = p > 0
    terms = np.where(pos, p * np.log(np.where(pos, p, 1.0)), 0.0)
    terms = np.take_along_axis(terms, np.argsort(~pos, axis=1, kind="stable"), axis=1)
    h = -row_sum(terms, pos.sum(axis=1))
    un = (n_un > 0) & (p_un > 0)
    return np.where(un, h - n_un * p_un * np.log(np.where(un, p_un, 1.0)), h)


@dataclass(frozen=True, eq=False)
class CatCells:
    """Label posteriors of categorical cells, one row per cell.

    ``cells[i]`` is cell ``i``'s flat index ``row · n_cols + col``;
    ``labels[i, :n_ans[i]]`` are the labels cell ``i`` received an answer
    for, ascending, with their posteriors in ``probs[i, :n_ans[i]]``; both
    are zero beyond ``n_ans[i]``. The ``n_un[i]`` unanswered labels share
    probability ``p0[i]`` each.
    """

    cells: np.ndarray  # int64
    n_labels: np.ndarray  # int64
    n_ans: np.ndarray  # int64
    n_un: np.ndarray  # int64
    p0: np.ndarray  # float64
    labels: np.ndarray  # (cells × A_max) float64
    probs: np.ndarray  # (cells × A_max) float64

    @classmethod
    def build(cls, parts: list) -> "CatCells":
        """From ``(cells, n_labels, CatGroups, pair_p, p0)`` per part, with
        the part's cells in that order. A part's pairs are sorted by cell,
        then label, so a pair's position within its cell is its index less
        the index of its cell's first pair."""
        a_max = max((int(g.n_answered.max(initial=0)) for _, _, g, _, _ in parts), default=0)
        columns = []
        for cells, n_labels, g, pair_p, p0 in parts:
            n = len(g.cell_rows)
            first = np.cumsum(g.n_answered) - g.n_answered
            at = (g.cell_inv, np.arange(len(g.cell_inv)) - first[g.cell_inv])
            labels, probs = np.zeros((n, a_max)), np.zeros((n, a_max))
            labels[at], probs[at] = g.pair_label, pair_p
            nl = np.full(n, n_labels, dtype=np.int64)
            columns.append((cells, nl, g.n_answered, nl - g.n_answered, p0, labels, probs))
        if not columns:
            e = np.zeros(0, dtype=np.int64)
            return cls(e, e, e, e, np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0)))
        return cls(*(np.concatenate(f) for f in zip(*columns)))

    def entropy(self) -> np.ndarray:
        """Shannon entropy of each cell's posterior."""
        return entropy_rows(self.probs, self.p0, self.n_un)

    def truth(self) -> np.ndarray:
        """Most probable *answered* label of each cell, the first on a tie.
        An unanswered label is more probable only when the answers' workers
        are worse than random (q < 1/L); the estimate stays an answered
        label then too. Padding is 0.0, which never beats the first
        answered label."""
        if not len(self.cells):
            return np.zeros(0)
        return self.labels[np.arange(len(self.cells)), self.probs.argmax(axis=1)]


def truth_frame(estimate: np.ndarray, n_cols: int) -> pd.DataFrame:
    """``(row, col, truth)`` of each cell with an estimate, by row then col;
    ``estimate`` holds T̂ per flat cell ``row · n_cols + col``, else NaN."""
    flat = np.flatnonzero(~np.isnan(estimate))
    return pd.DataFrame({"row": flat // n_cols, "col": flat % n_cols, "truth": estimate[flat]})


@dataclass
class TCrowdResult:
    """The arrays are per flat cell ``row · n_cols + col`` of the state's table."""

    state: EMState
    estimate: np.ndarray  # T̂ per flat cell; NaN where unanswered
    t_phi: np.ndarray  # T_φ per flat cell; NaN except at continuous cells
    cat_cells: CatCells  # label posterior per categorical cell
    worker_quality: np.ndarray  # q_u = erf(ε/√(2 φ_u))
    n_iters: int
    converged: bool
    q_trace: list = field(default_factory=list)  # Q value after each M-step
    priors: dict = field(default_factory=dict)  # col -> (mu0, var0)

    @cached_property
    def truth(self) -> pd.DataFrame:
        """(row, col, truth) over the answered cells, as jobs and metrics read it."""
        return truth_frame(self.estimate, len(self.state.ln_beta))


# ---------------------------------------------------------------------------
# E-step kernels.
# ---------------------------------------------------------------------------

def cont_posterior_arrays(
    inv: np.ndarray, values: np.ndarray, v: np.ndarray, mu0: float, var0: float
):
    """Gaussian posterior per cell of one continuous column with prior
    ``N(mu0, var0)``; ``inv`` maps each answer to its cell. Returns
    ``(t_mu, t_phi, s_per_answer)`` where ``s`` is the M-step sufficient
    statistic ``(a - T_μ)² + T_φ``."""
    prec = 1.0 / v
    sum_prec = np.bincount(inv, weights=prec)
    sum_pv = np.bincount(inv, weights=prec * values)
    t_phi = 1.0 / (sum_prec + 1.0 / var0)
    t_mu = (sum_pv + mu0 / var0) * t_phi
    s = (values - t_mu[inv]) ** 2 + t_phi[inv]
    return t_mu, t_phi, s


@dataclass(frozen=True)
class CatGroups:
    """How the answers of one categorical column group; depends only on the
    answers. Answers collapse to distinct ``(row, label)`` pairs sorted by
    row, then label, so the pairs of each cell are contiguous."""

    pair_inv: np.ndarray  # answer -> pair
    pair_label: np.ndarray  # pair -> label
    cell_rows: np.ndarray  # cell -> row
    cell_inv: np.ndarray  # pair -> cell (non-decreasing)
    n_answered: np.ndarray  # cell -> distinct labels answered


def cat_groups(rows: np.ndarray, values: np.ndarray, n_labels: int) -> CatGroups:
    """The :class:`CatGroups` of one categorical column's answers."""
    labels = values.astype(np.int64)
    key = rows.astype(np.int64) * n_labels + labels
    pair_key, pair_inv = np.unique(key, return_inverse=True)
    cell_rows, cell_inv = np.unique(pair_key // n_labels, return_inverse=True)
    n_answered = np.bincount(cell_inv, minlength=len(cell_rows))
    return CatGroups(pair_inv, pair_key % n_labels, cell_rows, cell_inv, n_answered)


def label_posteriors(groups: CatGroups, delta: np.ndarray, n_un: np.ndarray):
    """Label posterior of every cell under Eq. 3 (wrong-answer mass spread
    uniformly over the other labels).

    ``delta`` is each answer's log-odds ``ln q − ln((1 − q)/(L − 1))`` that
    its label is the truth, ``n_un`` each cell's number of unanswered
    labels (log-odds 0). Returns ``(pair_p, p0)``: the posterior of each
    answered pair of ``groups`` and, per cell, that of each unanswered
    label. The baselines that share Eq. 3 (Zencrowd, GLAD) call this too.
    """
    cell_inv = groups.cell_inv
    pair_delta = np.bincount(groups.pair_inv, weights=delta)
    n_cells = len(groups.cell_rows)
    mx = np.zeros(n_cells)  # include the unanswered labels' delta of 0
    np.maximum.at(mx, cell_inv, pair_delta)
    ex = np.exp(pair_delta - mx[cell_inv])
    z = np.bincount(cell_inv, weights=ex, minlength=n_cells) + n_un * np.exp(-mx)
    return ex / z[cell_inv], np.exp(-mx) / z


def cat_posterior_arrays(groups: CatGroups, v: np.ndarray, n_labels: int):
    """Label posterior per cell of one categorical column.

    Returns ``(pair_p, p0, w_per_answer, q_per_answer)``: the posterior of
    each answered ``(row, label)`` pair, per cell the probability ``p0`` of
    each of its unanswered labels, and per answer the posterior probability
    ``w`` that it equals the truth (the M-step sufficient statistic).
    """
    t = EPS / np.sqrt(2.0 * v)
    q = np.clip(np.asarray(erf(t), dtype=np.float64), _Q_CLIP, 1.0 - _Q_CLIP)
    delta = np.log(q) - np.log((1.0 - q) / (n_labels - 1))
    pair_p, p0 = label_posteriors(groups, delta, n_labels - groups.n_answered)
    w = pair_p[groups.pair_inv]  # per-answer posterior prob that its label is truth
    return pair_p, p0, w, q


# ---------------------------------------------------------------------------
# M-step (shared by both engines; parameters live on the driver).
# ---------------------------------------------------------------------------

_SPLIT_KEYS = ("row", "col", "worker", "s", "w", "n_labels")


def split_by_kind(stats: dict, keys: tuple = _SPLIT_KEYS) -> dict:
    """The per-answer statistics :func:`q_objective` reads, split into the
    continuous (``"cont"``) and categorical (``"cat"``) answers; ``idx``
    holds their positions among all answers. :func:`m_step` reads the split
    from ``stats["by_kind"]``: :func:`run_estep` slices ``s`` and ``w`` along
    the id split its :class:`AnswerLayout` made once, and the Spark engine
    splits the statistics it collects once per iteration."""
    out = {}
    for kind, sel in (("cont", ~stats["is_cat"]), ("cat", stats["is_cat"])):
        idx = np.flatnonzero(sel)
        out[kind] = {"idx": idx} | {k: stats[k][idx] for k in keys}
    return out


def q_objective(
    stats: dict,
    state: EMState,
    *,
    reg_alpha: float = 0.0,
    reg_phi: float = 0.0,
):
    """Q(α, β, φ) of Eq. 5 (parameter-dependent part) and its gradient
    w.r.t. each answer's ``ln v``; v = α_i β_j φ_u.

    ``reg_alpha`` adds a lognormal ridge ``-reg·Σ (ln α_i)²`` on the row
    difficulties: with few answers per row the per-row difficulty is
    otherwise badly under-determined (it chases the per-(worker,row)
    recognition noise), and a weak prior keeps the MAP well-posed.
    ``reg_phi`` adds the same ridge on worker log-variances: the MLE of a
    worker whose answers happen to match the estimated truth exactly drifts
    to φ → 0 (q → 1) unboundedly; the prior keeps it finite. The
    returned gradient is per-answer only; the α-penalty gradient is applied
    in :func:`m_step`.

    ``stats["by_kind"]`` is :func:`split_by_kind` of ``stats``. The
    per-answer terms are scattered back in answer order, so sums over them
    add in answer order."""
    by_kind = stats["by_kind"]
    n = len(stats["row"])
    g = np.empty(n)
    qv = np.zeros(n)

    def v_of(part):
        return np.exp(
            state.ln_alpha[part["row"]] + state.ln_beta[part["col"]]
            + state.ln_phi[part["worker"]]
        )

    cont = by_kind["cont"]
    if len(cont["idx"]):
        vc, s = v_of(cont), cont["s"]
        qv[cont["idx"]] = -0.5 * np.log(2.0 * np.pi * vc) - s / (2.0 * vc)
        g[cont["idx"]] = -0.5 + s / (2.0 * vc)
    cat = by_kind["cat"]
    if len(cat["idx"]):
        t = EPS / np.sqrt(2.0 * v_of(cat))
        q = np.clip(np.asarray(erf(t), dtype=np.float64), _Q_CLIP, 1.0 - _Q_CLIP)
        wc, nlc = cat["w"], cat["n_labels"]
        qv[cat["idx"]] = wc * np.log(q) + (1.0 - wc) * np.log((1.0 - q) / (nlc - 1))
        dq_dlnv = -t * np.exp(-t * t) / np.sqrt(np.pi)
        g[cat["idx"]] = (wc / q - (1.0 - wc) / (1.0 - q)) * dq_dlnv
    total = (
        float(qv.sum())
        - reg_alpha * float(np.sum(state.ln_alpha**2))
        - reg_phi * float(np.sum(state.ln_phi**2))
    )
    return total, g


def _clamped(x: np.ndarray, step: np.ndarray) -> np.ndarray:
    """``x + step`` clipped to ±``_LN_CLAMP``, except that a coordinate
    already beyond the clamp is not pulled back across it: the
    renormalisation in :func:`m_step` can leave ln β past −``_LN_CLAMP``
    (a column whose answers all agree), and clipping it back to the clamp
    in every candidate lowers Q, so no step would ever be accepted."""
    return np.clip(x + step, np.minimum(x, -_LN_CLAMP), np.maximum(x, _LN_CLAMP))


def m_step(stats: dict, state: EMState) -> tuple[EMState, float]:
    """Gradient ascent on Q in log-parameter space with backtracking.

    Per-answer gradients w.r.t. ``ln v`` scatter-add to ``ln α_i``,
    ``ln β_j`` and ``ln φ_u`` (chain rule: ln v = ln α + ln β + ln φ).
    """
    st = state.copy()
    n, m, u_n = len(st.ln_alpha), len(st.ln_beta), len(st.ln_phi)
    r, c, u = stats["row"], stats["col"], stats["worker"]
    # Normalise by answer counts so the step size is scale-free.
    na = np.maximum(np.bincount(r, minlength=n), 1)
    nb = np.maximum(np.bincount(c, minlength=m), 1)
    np_ = np.maximum(np.bincount(u, minlength=u_n), 1)
    lr = LR0
    q_cur, g = q_objective(stats, st, reg_alpha=REG_ALPHA, reg_phi=REG_PHI)
    for _ in range(GRAD_ITERS):
        ga = np.bincount(r, weights=g, minlength=n) - 2.0 * REG_ALPHA * st.ln_alpha
        gb = np.bincount(c, weights=g, minlength=m)
        gp = np.bincount(u, weights=g, minlength=u_n) - 2.0 * REG_PHI * st.ln_phi
        step_a, step_b, step_p = ga / na, gb / nb, gp / np_
        accepted = False
        for _try in range(10):
            cand = EMState(
                _clamped(st.ln_alpha, lr * step_a),
                _clamped(st.ln_beta, lr * step_b),
                _clamped(st.ln_phi, lr * step_p),
            )
            q_new, g_new = q_objective(stats, cand, reg_alpha=REG_ALPHA)
            if q_new >= q_cur - 1e-12:
                accepted = True
                break
            lr *= 0.5
        if not accepted:
            break
        moved = max_move(cand, st)
        st, q_cur, g = cand, q_new, g_new
        lr = min(lr * 1.3, 2.0)
        if moved < M_TOL:
            break
    # Renormalise the two scale freedoms into β.
    ma = st.ln_alpha.mean()
    mp = st.ln_phi.mean()
    st.ln_alpha -= ma
    st.ln_phi -= mp
    st.ln_beta += ma + mp
    return st, q_cur


# ---------------------------------------------------------------------------
# Full EM driver.
# ---------------------------------------------------------------------------

def column_moments(layout: AnswerLayout) -> dict:
    """``{j: (n, mean, var_pop)}`` of each answered continuous column of
    ``layout``; :func:`init_params` reads a missing column as unanswered."""
    return {
        j: (len(vals), float(vals.mean()), float(vals.var()))
        for j, _, vals, _, _ in layout.cont_cols
    }


def init_params(
    moments: dict, schema: TableSchema, n_rows: int, n_workers: int
) -> tuple[dict, EMState]:
    """Column priors and starting parameters from :func:`column_moments`
    (entries of categorical columns are ignored).

    A continuous column's empirical Gaussian prior (μ⁰_j, φ⁰_j) (§4.3) is
    its answers' mean and variance, or the domain's midpoint and a quarter
    of its width squared when it has no answers. α = φ = 1; β_j is the
    column's answer variance when it has two or more answers (so the initial
    α β φ matches the column's scale), otherwise 1."""
    priors = {}
    ln_beta = np.zeros(schema.n_cols)
    for j in schema.continuous_idx:
        n, mean, var = moments.get(j, (0, 0.0, 0.0))
        if n >= 1:
            priors[j] = (mean, max(var, 1e-6))
        else:
            lo, hi = schema.column(j).domain
            priors[j] = ((lo + hi) / 2.0, max(((hi - lo) / 4.0) ** 2, 1e-6))
        if n >= 2:
            ln_beta[j] = np.log(max(var, 1e-6))
    return priors, EMState(np.zeros(n_rows), ln_beta, np.zeros(n_workers))


def em_loop(step, state: EMState, max_iter: int):
    """Alternate E and M steps: ``step(state)`` returns ``(new_state, Q)``.
    Stops once no log-parameter moves by ``TOL`` or more, or after
    ``max_iter`` steps. Returns ``(state, n_iters, converged, q_trace)``."""
    q_trace: list[float] = []
    it = 0
    for it in range(1, max_iter + 1):
        new_state, q_val = step(state)
        q_trace.append(q_val)
        moved = max_move(new_state, state)
        state = new_state
        if moved < TOL:
            return state, it, True, q_trace
    return state, it, False, q_trace


def worker_quality(state: EMState) -> np.ndarray:
    """Worker quality q_u = erf(ε/√(2 φ_u)), Eq. 2 at α_i β_j = 1."""
    return np.asarray(erf(EPS / np.sqrt(2.0 * np.exp(state.ln_phi))), dtype=np.float64)


@dataclass(frozen=True)
class AnswerLayout:
    """Everything the E-step needs that depends only on the answers: the id
    arrays, the per-answer kind, the ids split by kind, and per answered
    column its answers' positions and cell grouping. Built once per
    :func:`tcrowd_em` call, and by the Spark E-step once per column."""

    row: np.ndarray
    col: np.ndarray
    worker: np.ndarray
    is_cat: np.ndarray  # per answer
    n_labels: np.ndarray  # per answer; 1 for continuous answers
    by_kind: dict  # split_by_kind of the ids and n_labels
    cat_cols: list  # (j, idx, n_labels, CatGroups), in column order
    cont_cols: list  # (j, idx, values, inv, cell_rows), in column order

    @classmethod
    def build(cls, answers: pd.DataFrame, schema: TableSchema) -> "AnswerLayout":
        r_all = answers["row"].to_numpy(dtype=np.int64)
        c_all = answers["col"].to_numpy(dtype=np.int64)
        val_all = answers["value"].to_numpy(dtype=np.float64)
        is_cat = np.zeros(len(answers), dtype=bool)
        n_labels = np.ones(len(answers))
        cat_cols, cont_cols = [], []
        for j, cspec in enumerate(schema.columns):
            idx = np.flatnonzero(c_all == j)
            if not len(idx):
                continue
            rows, vals = r_all[idx], val_all[idx]
            if cspec.is_categorical:
                is_cat[idx] = True
                n_labels[idx] = cspec.n_labels
                groups = cat_groups(rows, vals, cspec.n_labels)
                cat_cols.append((j, idx, cspec.n_labels, groups))
            else:
                cell_rows, inv = np.unique(rows, return_inverse=True)
                cont_cols.append((j, idx, vals, inv, cell_rows))
        ids = {
            "row": r_all, "col": c_all,
            "worker": answers["worker"].to_numpy(dtype=np.int64),
            "is_cat": is_cat, "n_labels": n_labels,
        }
        by_kind = split_by_kind(ids, ("row", "col", "worker", "n_labels"))
        return cls(**ids, by_kind=by_kind, cat_cols=cat_cols, cont_cols=cont_cols)


def run_estep(
    layout: AnswerLayout,
    state: EMState,
    priors: dict,
    *,
    posteriors: bool = True,
):
    """One full E-step over all columns of the answers ``layout`` was built
    from. Returns ``(estimate, t_phi, cat_cells, stats)``: the
    :class:`TCrowdResult` arrays over the flat cells of the state's
    ``n_rows × n_cols`` table, its :class:`CatCells`, and the per-answer
    sufficient-statistics dict the M-step consumes, with its
    :func:`split_by_kind` under ``"by_kind"``. With ``posteriors=False``
    only ``stats`` is computed, and the other three are None."""
    v_all = np.exp(
        state.ln_alpha[layout.row] + state.ln_beta[layout.col]
        + state.ln_phi[layout.worker]
    )

    s = np.zeros(len(layout.row))
    w = np.zeros(len(layout.row))
    cat_parts = []
    if posteriors:
        n_cols = len(state.ln_beta)
        estimate = np.full(len(state.ln_alpha) * n_cols, np.nan)
        t_phi = estimate.copy()
    for j, idx, n_labels, groups in layout.cat_cols:
        pair_p, p0, w[idx], _ = cat_posterior_arrays(groups, v_all[idx], n_labels)
        if posteriors:
            cat_parts.append((groups.cell_rows * n_cols + j, n_labels, groups, pair_p, p0))
    for j, idx, vals, inv, cell_rows in layout.cont_cols:
        mu0, var0 = priors[j]
        t_mu, phi, s[idx] = cont_posterior_arrays(inv, vals, v_all[idx], mu0, var0)
        if posteriors:
            at = cell_rows * n_cols + j
            estimate[at], t_phi[at] = t_mu, phi

    stats = {
        "row": layout.row,
        "col": layout.col,
        "worker": layout.worker,
        "is_cat": layout.is_cat,
        "s": s,
        "w": w,
        "n_labels": layout.n_labels,
        "by_kind": {
            kind: ids | {"s": s[ids["idx"]], "w": w[ids["idx"]]}
            for kind, ids in layout.by_kind.items()
        },
    }
    if not posteriors:
        return None, None, None, stats
    # T̂ (end of §4.3): T_μ for a continuous cell, the argmax label for a
    # categorical one.
    cat_cells = CatCells.build(cat_parts)
    estimate[cat_cells.cells] = cat_cells.truth()
    return estimate, t_phi, cat_cells, stats


def tcrowd_em(
    answers: pd.DataFrame,
    schema: TableSchema,
    *,
    n_rows: int | None = None,
    n_workers: int | None = None,
    max_iter: int = MAX_ITER,
    warm_state: EMState | None = None,
) -> TCrowdResult:
    """Full T-Crowd truth inference (Algorithm 1).

    ``warm_state`` lets the online simulator resume from the previous
    parameters after collecting a few more answers.
    """
    if len(answers) == 0:
        raise ValueError("no answers to infer from")
    validate_answers(answers, schema, n_rows=n_rows, n_workers=n_workers)
    n_rows = n_rows if n_rows is not None else int(answers["row"].max()) + 1
    n_workers = n_workers if n_workers is not None else int(answers["worker"].max()) + 1
    layout = AnswerLayout.build(answers, schema)
    priors, state = init_params(column_moments(layout), schema, n_rows, n_workers)
    if warm_state is not None:
        state = warm_state.copy()
        if len(state.ln_alpha) < n_rows or len(state.ln_phi) < n_workers:
            state = EMState(
                np.pad(state.ln_alpha, (0, n_rows - len(state.ln_alpha))),
                state.ln_beta,
                np.pad(state.ln_phi, (0, n_workers - len(state.ln_phi))),
            )

    def step(st: EMState):
        *_, stats = run_estep(layout, st, priors, posteriors=False)
        return m_step(stats, st)

    state, n_iters, converged, q_trace = em_loop(step, state, max_iter)
    # Final E-step with the converged parameters.
    estimate, t_phi, cat_cells, _ = run_estep(layout, state, priors)
    return TCrowdResult(
        state=state,
        estimate=estimate,
        t_phi=t_phi,
        cat_cells=cat_cells,
        worker_quality=worker_quality(state),
        n_iters=n_iters,
        converged=converged,
        q_trace=q_trace,
        priors=priors,
    )
