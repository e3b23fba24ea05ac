"""GLAD baseline [33] — categorical only, multiclass extension.

GLAD models P(correct) = sigmoid(ability_u · easiness_t) with a per-task
easiness (we parameterise ln-easiness so it stays positive). Wrong answers
spread uniformly over the remaining labels, as in the original multiclass
extension. Worker ability is shared across *all* categorical columns (each
cell is a task), which, like the paper's GLAD row, makes it stronger than
per-column D&S but weaker than the unified model that also uses the
continuous columns.

EM with a gradient M-step (ascent on the expected complete log-likelihood
with backtracking), mirroring Whitehill et al.'s optimisation. The E-step
is Eq. 3 with ``q = sigmoid(ability_u · easiness_t)``: T-Crowd's
label-posterior kernel over the :class:`~repro.baselines.cells.LabelCells`
grouping it shares with Zencrowd.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema, restrict_answers, validate_answers
from .cells import LabelCells

_MAX_ITER = 40  # EM rounds
_GRAD_ITERS = 20  # gradient steps per M-step
_TOL = 1e-4  # stop once no answer's posterior moves more than this


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def glad(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """Run GLAD over all categorical cells jointly; returns (row, col, truth)."""
    validate_answers(answers, schema)
    cat = restrict_answers(answers, schema, "cat")
    if cat.empty:
        return pd.DataFrame(columns=["row", "col", "truth"])
    cells = LabelCells.build(cat, schema)
    workers, w_inv = np.unique(cat["worker"].to_numpy(np.int64), return_inverse=True)
    t_inv, nl_a = cells.inv, cells.n_labels
    n_t, n_w = len(cells.rows), len(workers)
    na = np.maximum(np.bincount(w_inv, minlength=n_w), 1)
    nt = np.maximum(np.bincount(t_inv, minlength=n_t), 1)

    ability = np.ones(n_w)
    ln_ease = np.zeros(n_t)

    def correct_prob(ability, ln_ease):
        """Per answer ``(q, x)``: x = ability · easiness, q = sigmoid(x) clipped."""
        x = ability[w_inv] * np.exp(ln_ease[t_inv])
        return np.clip(_sigmoid(x), 1e-6, 1 - 1e-6), x

    def q_and_grad(w, ability, ln_ease):
        q, x = correct_prob(ability, ln_ease)
        val = w * np.log(q) + (1 - w) * np.log((1 - q) / (nl_a - 1))
        # d/dx [w ln σ + (1-w) ln(1-σ)] = w - σ
        gx = w - q
        g_ab = np.bincount(w_inv, weights=gx * np.exp(ln_ease[t_inv]), minlength=n_w)
        g_le = np.bincount(t_inv, weights=gx * x, minlength=n_t)
        return float(val.sum()), g_ab, g_le

    w = np.full(len(cat), 0.5)
    for _ in range(_MAX_ITER):
        _, new_w = cells.posterior(correct_prob(ability, ln_ease)[0])
        # M-step: backtracking gradient ascent on the expected ll.
        lr = 0.5
        q_cur, g_ab, g_le = q_and_grad(new_w, ability, ln_ease)
        for _g in range(_GRAD_ITERS):
            ok = False
            for _try in range(8):
                ab2 = np.clip(ability + lr * g_ab / na, -8.0, 8.0)
                le2 = np.clip(ln_ease + lr * g_le / nt, -6.0, 6.0)
                q_new, g_ab2, g_le2 = q_and_grad(new_w, ab2, le2)
                if q_new >= q_cur - 1e-12:
                    ok = True
                    break
                lr *= 0.5
            if not ok:
                break
            ability, ln_ease, q_cur, g_ab, g_le = ab2, le2, q_new, g_ab2, g_le2
            lr = min(lr * 1.2, 2.0)
        if np.abs(new_w - w).max() < _TOL:
            w = new_w
            break
        w = new_w

    pair_p, _ = cells.posterior(correct_prob(ability, ln_ease)[0])
    return cells.truth(pair_p)
