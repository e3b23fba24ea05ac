"""Dataset generators reproducing the shapes of the paper's evaluation data.

The three real datasets (Celebrity [6], Restaurant [27], Emotion [30]) are
not redistributable/available offline, so we generate synthetic equivalents
that preserve every property the evaluated methods key on — see DESIGN.md §3
for the substitution argument. Table 6 statistics (N, M, #cells, answers
per task) match the paper exactly; datatype mixes and label-set sizes match
the paper's description of each dataset.

Also here: the §6.5 parametric generator (vary #columns M, categorical
ratio R, mean difficulty) and the §6.5.2 noise injector.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .schema import CATEGORICAL, CONTINUOUS, ColumnSpec, CrowdDataset, TableSchema
from .workers import default_beta, make_pool, simulate_answers


def _uniform_truth(schema: TableSchema, n_rows: int, g: np.random.Generator) -> pd.DataFrame:
    recs = []
    for j, c in enumerate(schema.columns):
        if c.is_categorical:
            vals = np.floor(g.random(n_rows) * c.n_labels)
        else:
            lo, hi = c.domain
            vals = lo + g.random(n_rows) * (hi - lo)
        recs.append(
            pd.DataFrame({"row": np.arange(n_rows), "col": j, "truth": vals.astype(float)})
        )
    return pd.concat(recs, ignore_index=True)


def _build(
    schema: TableSchema,
    n_rows: int,
    n_workers: int,
    n_per_task: int,
    seed: int,
) -> CrowdDataset:
    g = np.random.default_rng(seed)
    truth = _uniform_truth(schema, n_rows, g)
    pool = make_pool(n_workers, seed=seed + 1)
    return simulate_answers(schema, truth, pool, n_per_task=n_per_task, seed=seed + 2)


# ---------------------------------------------------------------------------
# The three "real-world" datasets of Table 6.
# ---------------------------------------------------------------------------

def celebrity_schema() -> TableSchema:
    """174 rows × 7 columns: name/nationality/ethnicity categorical;
    age/height/notability/facial continuous (paper §6.1)."""
    return TableSchema(
        name="celebrity",
        columns=(
            ColumnSpec("name", CATEGORICAL, n_labels=50),
            ColumnSpec("nationality", CATEGORICAL, n_labels=20),
            ColumnSpec("ethnicity", CATEGORICAL, n_labels=8),
            ColumnSpec("age", CONTINUOUS, domain=(10.0, 90.0)),
            ColumnSpec("height", CONTINUOUS, domain=(55.0, 80.0)),  # inches
            ColumnSpec("notability", CONTINUOUS, domain=(0.0, 100.0)),
            ColumnSpec("facial", CONTINUOUS, domain=(0.0, 100.0)),
        ),
    )


def restaurant_schema() -> TableSchema:
    """203 rows × 5 columns: aspect/attribute/sentiment categorical;
    start/end target positions continuous with correlated errors (§6.4.3)."""
    return TableSchema(
        name="restaurant",
        columns=(
            ColumnSpec("aspect", CATEGORICAL, n_labels=5, corr_group="label"),
            ColumnSpec("attribute", CATEGORICAL, n_labels=5),
            ColumnSpec("sentiment", CATEGORICAL, n_labels=3, corr_group="label"),
            ColumnSpec("start_target", CONTINUOUS, domain=(0.0, 200.0), corr_group="span"),
            ColumnSpec("end_target", CONTINUOUS, domain=(0.0, 200.0), corr_group="span"),
        ),
    )


def emotion_schema() -> TableSchema:
    """100 rows × 7 columns, all continuous: six emotions in [0,100] and an
    overall sentiment in [-100,100] (paper §6.1)."""
    emotions = ("anger", "disgust", "fear", "joy", "sadness", "surprise")
    cols = tuple(ColumnSpec(e, CONTINUOUS, domain=(0.0, 100.0)) for e in emotions)
    cols += (ColumnSpec("valence", CONTINUOUS, domain=(-100.0, 100.0)),)
    return TableSchema(name="emotion", columns=cols)


#: Default generator seed of each real dataset; the harnesses draw replicate
#: ``k`` of a dataset from ``BASE_SEED[name] + 100 * k``.
BASE_SEED = {"celebrity": 7, "restaurant": 11, "emotion": 13}


def celebrity_like(seed: int = BASE_SEED["celebrity"]) -> CrowdDataset:
    return _build(celebrity_schema(), n_rows=174, n_workers=150, n_per_task=5, seed=seed)


def restaurant_like(seed: int = BASE_SEED["restaurant"]) -> CrowdDataset:
    return _build(restaurant_schema(), n_rows=203, n_workers=110, n_per_task=4, seed=seed)


def emotion_like(seed: int = BASE_SEED["emotion"]) -> CrowdDataset:
    return _build(emotion_schema(), n_rows=100, n_workers=45, n_per_task=10, seed=seed)


REAL_DATASETS = {
    "celebrity": celebrity_like,
    "restaurant": restaurant_like,
    "emotion": emotion_like,
}


# ---------------------------------------------------------------------------
# §6.5.1 parametric generator.
# ---------------------------------------------------------------------------

_MAX_LABELS = 10


def synthetic_schema(m: int, cat_ratio: float, seed: int) -> TableSchema:
    """M columns, ``round(M * cat_ratio)`` categorical with |L| ~ U(2, 10),
    remaining continuous on [0, 1000] — exactly the §6.5 generator."""
    g = np.random.default_rng(seed)
    n_cat = int(round(m * cat_ratio))
    cols = []
    for j in range(m):
        if j < n_cat:
            cols.append(
                ColumnSpec(f"c{j}", CATEGORICAL, n_labels=int(g.integers(2, _MAX_LABELS + 1)))
            )
        else:
            cols.append(ColumnSpec(f"c{j}", CONTINUOUS, domain=(0.0, 1000.0)))
    return TableSchema(name=f"synth_m{m}_r{cat_ratio}", columns=tuple(cols))


def synthetic_table(
    *,
    n_rows: int = 100,
    m: int = 10,
    cat_ratio: float = 0.5,
    mean_difficulty: float = 1.0,
    n_workers: int = 60,
    n_per_task: int = 5,
    seed: int = 0,
) -> CrowdDataset:
    """§6.5 table: difficulty α_i β_j scaled so E[α_i β_j] = mean_difficulty.

    Worker qualities follow the same long-tail pool as the real-dataset
    simulators (the paper reuses the Celebrity worker sequence; we reuse the
    Celebrity pool distribution).
    """
    g = np.random.default_rng(seed)
    schema = synthetic_schema(m, cat_ratio, seed + 17)
    truth = _uniform_truth(schema, n_rows, g)
    pool = make_pool(n_workers, seed=seed + 1)
    # lognormal(0, .25) has mean exp(.25²/2); rescale so E[α]·rel_difficulty
    # hits the requested mean cell difficulty.
    alpha = g.lognormal(0.0, 0.25, n_rows)
    alpha *= mean_difficulty / alpha.mean()
    beta = default_beta(schema)
    return simulate_answers(
        schema,
        truth,
        pool,
        n_per_task=n_per_task,
        seed=seed + 2,
        row_alpha=alpha,
        col_beta=beta,
    )


# ---------------------------------------------------------------------------
# §6.5.2 noise injector.
# ---------------------------------------------------------------------------

def add_noise(ds: CrowdDataset, gamma: float, seed: int = 0) -> CrowdDataset:
    """Perturb ``gamma`` of the answers (sampled with replacement, as in the
    paper): categorical → fresh uniform label; continuous → z-score, add
    N(0,1) noise, map back to the original scale."""
    g = np.random.default_rng(seed)
    a = ds.answers.copy().reset_index(drop=True)
    n_noisy = int(round(len(a) * gamma))
    picked = np.unique(g.integers(0, len(a), n_noisy))  # with replacement → dedupe
    vals = a["value"].to_numpy().copy()
    cols = a["col"].to_numpy()
    for j, cspec in enumerate(ds.schema.columns):
        idx = picked[cols[picked] == j]
        if len(idx) == 0:
            continue
        if cspec.is_categorical:
            vals[idx] = np.floor(g.random(len(idx)) * cspec.n_labels)
        else:
            col_vals = vals[cols == j]
            mu, sd = float(col_vals.mean()), float(col_vals.std()) or 1.0
            z = (vals[idx] - mu) / sd
            vals[idx] = (z + g.normal(0.0, 1.0, len(idx))) * sd + mu
    a["value"] = vals
    return CrowdDataset(
        schema=ds.schema,
        n_rows=ds.n_rows,
        truth=ds.truth,
        answers=a,
        worker_phi=ds.worker_phi,
        row_alpha=ds.row_alpha,
        col_beta=ds.col_beta,
    )
