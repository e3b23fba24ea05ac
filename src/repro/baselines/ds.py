"""Dawid–Skene ("EM" in Table 7) and Zencrowd baselines — categorical only.

* :func:`dawid_skene` — the classic confusion-matrix EM [9], run *per
  column* (a confusion matrix needs one fixed label set; different columns
  have different domains). This is the paper's "EM" row; with the paper's
  small per-column answer sets the per-worker confusion matrices are badly
  under-determined, which is exactly why it trails the pack in Table 7.
* :func:`zencrowd` — Zencrowd [10] models a single reliability ``p_u`` per
  worker. We share ``p_u`` across *all* categorical columns (its natural
  generalisation to tabular data), which pools more evidence per worker and
  makes it the strongest pure-categorical baseline, as in the paper. Its
  E-step is Eq. 3 with ``q = p_u``: T-Crowd's label-posterior kernel over
  the :class:`~repro.baselines.cells.LabelCells` grouping it shares with
  GLAD.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema, restrict_answers, validate_answers
from .cells import LabelCells

_SMOOTH = 0.01
_MAX_ITER = 50  # EM rounds, for both methods
_TOL = 1e-4  # stop once no posterior moves more than this


def _ds_one_column(sub: pd.DataFrame, n_labels: int):
    """Standard D&S EM on one column's answers. Returns (row, truth)."""
    rows, row_inv = np.unique(sub["row"].to_numpy(np.int64), return_inverse=True)
    workers, w_inv = np.unique(sub["worker"].to_numpy(np.int64), return_inverse=True)
    labels = sub["value"].round().to_numpy(np.int64)
    n_r, n_w = len(rows), len(workers)

    # Init with majority voting soft counts.
    post = np.zeros((n_r, n_labels))
    np.add.at(post, (row_inv, labels), 1.0)
    post = (post + _SMOOTH) / (post + _SMOOTH).sum(axis=1, keepdims=True)

    prior = np.full(n_labels, 1.0 / n_labels)
    for _ in range(_MAX_ITER):
        # M: per-worker confusion matrix pi[w, true, given], accumulated per
        # observed label value (vectorised over answers sharing a label).
        pi = np.full((n_w, n_labels, n_labels), _SMOOTH)
        for lab in range(n_labels):
            mask = labels == lab
            if mask.any():
                np.add.at(pi[:, :, lab], (w_inv[mask],), post[row_inv[mask]])
        pi /= pi.sum(axis=2, keepdims=True)
        prior = post.mean(axis=0)
        # E: posterior per row.
        log_post = np.tile(np.log(np.maximum(prior, 1e-12)), (n_r, 1))
        np.add.at(log_post, (row_inv,), np.log(np.maximum(pi[w_inv, :, labels], 1e-12)))
        log_post -= log_post.max(axis=1, keepdims=True)
        new_post = np.exp(log_post)
        new_post /= new_post.sum(axis=1, keepdims=True)
        if np.abs(new_post - post).max() < _TOL:
            post = new_post
            break
        post = new_post
    return rows, post.argmax(axis=1).astype(float)


def dawid_skene(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """Per-column confusion-matrix EM over the categorical columns."""
    validate_answers(answers, schema)
    out = []
    cat = restrict_answers(answers, schema, "cat")
    for j in schema.categorical_idx:
        sub = cat[cat["col"] == j]
        if sub.empty:
            continue
        rows, truth = _ds_one_column(sub, schema.column(j).n_labels)
        out.append(pd.DataFrame({"row": rows, "col": j, "truth": truth}))
    if not out:
        return pd.DataFrame(columns=["row", "col", "truth"])
    return pd.concat(out, ignore_index=True).sort_values(["row", "col"]).reset_index(drop=True)


def zencrowd(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """Single-reliability EM, p_u shared across all categorical columns."""
    validate_answers(answers, schema)
    cat = restrict_answers(answers, schema, "cat")
    if cat.empty:
        return pd.DataFrame(columns=["row", "col", "truth"])
    cells = LabelCells.build(cat, schema)
    workers, w_inv = np.unique(cat["worker"].to_numpy(np.int64), return_inverse=True)
    p = np.full(len(workers), 0.8)

    pair_p, w = np.full(len(cells.groups.pair_label), 0.5), np.full(len(cat), 0.5)
    for _ in range(_MAX_ITER):
        pair_p, new_w = cells.posterior(np.clip(p[w_inv], 1e-6, 1 - 1e-6))
        # M-step: p_u = mean posterior-correct over u's answers.
        p = np.bincount(w_inv, weights=new_w) / np.bincount(w_inv)
        p = np.clip(p, 1e-3, 1 - 1e-3)
        if np.abs(new_w - w).max() < _TOL:
            w = new_w
            break
        w = new_w
    return cells.truth(pair_p)
