"""Cell index and label posterior shared by the per-answer-quality baselines.

Zencrowd and GLAD both give each answer a probability ``q`` of being right
and spread the rest uniformly over the column's other labels: the label
posterior of Eq. 3 that T-Crowd uses, with a different ``q``. So both group
their answers into :class:`LabelCells` once, run T-Crowd's kernel
:func:`repro.core.em.label_posteriors` on it every iteration, and decode it
the same way. GTM uses :func:`cell_index` alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from ..core.em import CatCells, CatGroups, cat_groups, label_posteriors
from ..crowd.schema import TableSchema


def cell_index(answers: pd.DataFrame):
    """The answered cells sorted by (row, col), as ``(rows, cols, inv)``;
    ``inv`` maps each answer to its cell."""
    cells, inv = np.unique(
        answers[["row", "col"]].to_numpy(np.int64), axis=0, return_inverse=True
    )
    return cells[:, 0], cells[:, 1], inv


@dataclass(frozen=True)
class LabelCells:
    """Categorical answers grouped by cell (all columns at once) and, within
    a cell, by label. Depends only on the answers."""

    rows: np.ndarray  # cell -> row
    cols: np.ndarray  # cell -> col
    inv: np.ndarray  # answer -> cell
    n_labels: np.ndarray  # per answer, float64: its column's label count
    n_un: np.ndarray  # cell -> labels nobody answered
    groups: CatGroups  # "rows" are the cells here

    @classmethod
    def build(cls, cat: pd.DataFrame, schema: TableSchema) -> "LabelCells":
        rows, cols, inv = cell_index(cat)
        labels = cat["value"].round().astype(np.int64).to_numpy()
        groups = cat_groups(inv, labels, int(labels.max()) + 1)
        n_labels = np.array([c.n_labels or 0 for c in schema.columns], dtype=np.float64)[cols]
        return cls(rows, cols, inv, n_labels[inv], n_labels - groups.n_answered, groups)

    def posterior(self, q: np.ndarray):
        """Eq. 3 with ``q`` the probability that each answer is right.
        Returns ``(pair_p, w)``: the posterior of each ``(cell, label)``
        pair and, per answer, that of its own label."""
        delta = np.log(q) - np.log((1 - q) / (self.n_labels - 1))
        pair_p, _ = label_posteriors(self.groups, delta, self.n_un)
        return pair_p, pair_p[self.groups.pair_inv]

    def truth(self, pair_p: np.ndarray) -> pd.DataFrame:
        """``(row, col, truth)``: per cell the answered label of highest
        posterior, the smallest label on a tie (:meth:`CatCells.truth`)."""
        n = len(self.rows)
        post = CatCells.build([(np.arange(n), 0, self.groups, pair_p, np.zeros(n))])
        return pd.DataFrame({"row": self.rows, "col": self.cols, "truth": post.truth()})
