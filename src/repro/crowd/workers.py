"""Worker pool and answer simulation (substrate for AMT).

The real paper collected answers from Amazon Mechanical Turk. Offline, we
simulate the crowd with the paper's *own* generative story (§4.1–4.2 and
§6.5), extended with two realism knobs that the T-Crowd model does NOT get
to see, so the comparison is not a tautology:

* a **spammer fraction**: spammers answer uniformly at random regardless of
  the cell (the long-tail quality distribution the CATD paper targets);
* a per-(worker, row) **recognition factor**: with probability
  ``P_UNFAMILIAR`` a worker "does not recognise the entity" and all of their
  answers on that row degrade (variance × ``UNFAMILIAR_FACTOR``). This is
  exactly the motivating example in §1 (worker u3 and James Purefoy) and is
  what the structure-aware assignment of §5.2 exploits;
* a shared additive error component for continuous columns in the same
  ``corr_group`` (models e.g. a shifted start/end span in Restaurant),
  producing the positively correlated signed errors of §6.4.3.

Assignment granularity follows the paper's HIT layout: one HIT = one row
(the number of tasks per HIT equals the number of columns), so a worker
answering row i answers every cell of row i.

The constants below define the hidden crowd, for the batch datasets drawn
here and for the online world of :mod:`repro.crowd.simulator` alike.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from .schema import CONTINUOUS, CrowdDataset, TableSchema
from .stats import erf

EPSILON = 1.0
"""Global ε of Eq. 2. Column difficulty β_j absorbs scale, so ε only fixes
the parameterisation of worker quality; the paper does not publish a value."""

SPAMMER_FRAC = 0.10  # share of workers who answer uniformly at random
PHI_LOG_MU, PHI_LOG_SIGMA = -0.7, 1.2  # φ_u ~ lognormal(μ, σ)
REL_ERR = 0.06  # average worker's answer std, as a share of the domain width
ALPHA_SIGMA = 0.5  # α_i ~ lognormal(0, σ) unless the caller gives α
P_UNFAMILIAR = 0.15  # chance a worker does not recognise a row's entity
UNFAMILIAR_FACTOR = 9.0  # variance multiplier on such a row
CORR_SHIFT_STD = 0.6  # std of a corr_group's shared shift, in answer stds
PARTICIPATION_SKEW = 0.8  # worker of rank r is drawn ∝ r^(-skew)


@dataclass(frozen=True)
class WorkerPool:
    """Hidden worker parameters: inherent variance φ_u and spammer flags."""

    phi: np.ndarray  # (U,) inherent variance of each worker
    is_spammer: np.ndarray  # (U,) bool

    @property
    def n_workers(self) -> int:
        return len(self.phi)


def make_pool(n_workers: int, *, seed: int) -> WorkerPool:
    """Long-tail worker pool: φ_u lognormal (most workers decent, a heavy
    tail of bad ones) plus a small spammer fraction."""
    g = np.random.default_rng(seed)
    phi = g.lognormal(PHI_LOG_MU, PHI_LOG_SIGMA, n_workers)
    is_spammer = g.random(n_workers) < SPAMMER_FRAC
    return WorkerPool(phi=phi, is_spammer=is_spammer)


def participation_weights(n_workers: int) -> np.ndarray:
    """Long-tail participation (a few workers answer many HITs, most answer
    few — the regime CATD targets and the paper's "long-tail distribution"
    of crowdsourced answers): the probability of drawing the worker of rank
    ``r`` is ∝ r^(-``PARTICIPATION_SKEW``)."""
    ranks = np.arange(1, n_workers + 1, dtype=np.float64)
    pw = ranks ** (-PARTICIPATION_SKEW)
    pw /= pw.sum()
    return pw


def default_beta(schema: TableSchema) -> np.ndarray:
    """Hidden column difficulties β_j.

    For a continuous column, β_j carries the column's *scale*: an average
    worker (φ=1, α=1) has answer std ≈ ``REL_ERR`` × domain width. For a
    categorical column β_j = 1, giving q = erf(1/√2) ≈ 0.68 for the average
    worker before row effects.
    """
    beta = np.ones(schema.n_cols)
    for j, c in enumerate(schema.columns):
        if c.kind == CONTINUOUS:
            lo, hi = c.domain
            beta[j] = (REL_ERR * (hi - lo)) ** 2
    return beta


def simulate_answers(
    schema: TableSchema,
    truth: pd.DataFrame,
    pool: WorkerPool,
    *,
    n_per_task: int,
    seed: int,
    row_alpha: np.ndarray | None = None,
    col_beta: np.ndarray | None = None,
) -> CrowdDataset:
    """Draw the full answer relation from the generative model.

    Each row's ``n_per_task`` distinct workers are drawn with the
    :func:`participation_weights`.
    """
    g = np.random.default_rng(seed)
    n_rows = int(truth["row"].max()) + 1
    m = schema.n_cols
    alpha = row_alpha if row_alpha is not None else g.lognormal(0.0, ALPHA_SIGMA, n_rows)
    beta = col_beta if col_beta is not None else default_beta(schema)

    truth_grid = (
        truth.pivot(index="row", columns="col", values="truth")
        .reindex(index=range(n_rows), columns=range(m))
        .to_numpy()
    )

    pw = participation_weights(pool.n_workers)
    pairs = []
    for i in range(n_rows):
        ws = g.choice(
            pool.n_workers,
            size=min(n_per_task, pool.n_workers),
            replace=False,
            p=pw,
        )
        pairs.extend((i, int(w)) for w in ws)

    rows, workers = (
        np.array([p[0] for p in pairs], dtype=np.int64),
        np.array([p[1] for p in pairs], dtype=np.int64),
    )
    # Per-(worker,row) recognition factor — shared across the row's cells.
    recog = np.where(g.random(len(pairs)) < P_UNFAMILIAR, UNFAMILIAR_FACTOR, 1.0)
    # Shared signed shift per (worker,row) per corr_group, in units of the
    # answer's own std (so it scales with worker quality and correlates the
    # signed errors of grouped continuous columns without distorting the
    # quality ordering — §6.4.3's start/end-target effect).
    groups = sorted({c.corr_group for c in schema.columns if c.corr_group})
    shift_by_group = {grp: g.normal(0.0, CORR_SHIFT_STD, len(pairs)) for grp in groups}

    out_rows, out_cols, out_workers, out_vals = [], [], [], []
    for j, cspec in enumerate(schema.columns):
        var = alpha[rows] * beta[j] * pool.phi[workers] * recog
        t = truth_grid[rows, j]
        if cspec.is_categorical:
            q = np.asarray(erf(EPSILON / np.sqrt(2.0 * var)), dtype=np.float64)
            correct = g.random(len(pairs)) < q
            wrong = np.floor(g.random(len(pairs)) * (cspec.n_labels - 1))
            wrong = np.where(wrong >= t, wrong + 1, wrong)  # uniform over L \ {t}
            val = np.where(correct, t, wrong)
            spam = pool.is_spammer[workers]
            val = np.where(spam, np.floor(g.random(len(pairs)) * cspec.n_labels), val)
        else:
            z = g.normal(0.0, 1.0, len(pairs))
            if cspec.corr_group:
                z = z + shift_by_group[cspec.corr_group]
            val = t + z * np.sqrt(var)
            lo, hi = cspec.domain
            spam = pool.is_spammer[workers]
            val = np.where(spam, lo + g.random(len(pairs)) * (hi - lo), val)
        out_rows.append(rows)
        out_cols.append(np.full(len(pairs), j, dtype=np.int64))
        out_workers.append(workers)
        out_vals.append(val.astype(np.float64))

    answers = pd.DataFrame(
        {
            "worker": np.concatenate(out_workers),
            "row": np.concatenate(out_rows),
            "col": np.concatenate(out_cols),
            "value": np.concatenate(out_vals),
        }
    ).sort_values(["row", "col", "worker"], kind="stable").reset_index(drop=True)

    return CrowdDataset(
        schema=schema,
        n_rows=n_rows,
        truth=truth,
        answers=answers,
        worker_phi=pd.Series(pool.phi),
        row_alpha=pd.Series(alpha),
        col_beta=pd.Series(beta),
    )
