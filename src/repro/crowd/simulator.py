"""Online crowdsourcing simulator — the AMT 'external-HIT' stand-in.

:class:`HiddenWorld` holds the hidden generative state (ground truth, worker
pool, difficulties) and produces answers on demand for any (worker, row,
col), using the same model, and the same constants of
:mod:`repro.crowd.workers`, as :func:`~repro.crowd.workers.simulate_answers`
(Eqs. 1/3 + spammers + per-(worker,row) recognition factor + correlated
span shifts). The per-(worker,row) latent factors are memoised so a worker
revisiting a row behaves consistently.

:func:`run_simulation` drives the §6.3 online loop: workers arrive in a
long-tail sequence, a policy picks a batch of K tasks for each, answers are
collected, truth inference re-runs (warm-started), and Error Rate / MNAD
are recorded at answers-per-task checkpoints — the data behind Figures 2
and 5, tabulated in EXPERIMENTS.md.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from ..core.assignment import AssignmentView
from ..core.correlation import fit_error_model
from ..core.em import MAX_ITER, EMState, tcrowd_em
from . import workers
from .metrics import error_rate, mnad
from .schema import CrowdDataset, TableSchema
from .workers import EPSILON, WorkerPool, default_beta, participation_weights

FULL_EM_EVERY = 25  # arrivals between full EM re-inferences and error-model refits


@dataclass
class HiddenWorld:
    """Hidden generative state; ``answer`` draws one answer on demand."""

    schema: TableSchema
    truth_grid: np.ndarray  # (N, M)
    pool: WorkerPool
    alpha: np.ndarray
    beta: np.ndarray
    seed: int = 0
    _recog: dict = field(init=False, default_factory=dict, repr=False)
    _shift: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    @property
    def n_rows(self) -> int:
        return self.truth_grid.shape[0]

    def _recog_factor(self, worker: int, row: int) -> float:
        key = (worker, row)
        if key not in self._recog:
            bad = self.rng.random() < workers.P_UNFAMILIAR
            self._recog[key] = workers.UNFAMILIAR_FACTOR if bad else 1.0
        return self._recog[key]

    def _group_shift(self, worker: int, row: int, group: str) -> float:
        key = (worker, row, group)
        if key not in self._shift:
            self._shift[key] = self.rng.normal(0.0, workers.CORR_SHIFT_STD)
        return self._shift[key]

    def answer(self, worker: int, row: int, col: int) -> float:
        cspec = self.schema.column(col)
        t = float(self.truth_grid[row, col])
        if self.pool.is_spammer[worker]:
            if cspec.is_categorical:
                return float(self.rng.integers(0, cspec.n_labels))
            lo, hi = cspec.domain
            return float(lo + self.rng.random() * (hi - lo))
        var = (
            self.alpha[row]
            * self.beta[col]
            * self.pool.phi[worker]
            * self._recog_factor(worker, row)
        )
        if cspec.is_categorical:
            from .stats import erf

            q = float(erf(EPSILON / np.sqrt(2.0 * var)))
            if self.rng.random() < q:
                return t
            wrong = self.rng.integers(0, cspec.n_labels - 1)
            return float(wrong + 1 if wrong >= t else wrong)
        z = self.rng.normal()
        if cspec.corr_group:
            z = z + self._group_shift(worker, row, cspec.corr_group)
        return t + z * float(np.sqrt(var))

    def truth_frame(self) -> pd.DataFrame:
        n, m = self.truth_grid.shape
        rows, cols = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
        return pd.DataFrame(
            {
                "row": rows.ravel(),
                "col": cols.ravel(),
                "truth": self.truth_grid.ravel().astype(float),
            }
        )


def world_from_dataset(ds: CrowdDataset, seed: int = 0) -> HiddenWorld:
    """Re-create the hidden world that generated a :class:`CrowdDataset`."""
    grid = (
        ds.truth.pivot(index="row", columns="col", values="truth")
        .reindex(index=range(ds.n_rows), columns=range(ds.schema.n_cols))
        .to_numpy()
    )
    pool = WorkerPool(
        phi=ds.worker_phi.to_numpy(),
        is_spammer=np.zeros(len(ds.worker_phi), dtype=bool),
    )
    beta = ds.col_beta.to_numpy() if ds.col_beta is not None else default_beta(ds.schema)
    alpha = ds.row_alpha.to_numpy() if ds.row_alpha is not None else np.ones(ds.n_rows)
    return HiddenWorld(
        schema=ds.schema, truth_grid=grid, pool=pool, alpha=alpha, beta=beta,
        seed=seed,
    )


@dataclass
class SimConfig:
    batch_size: int = 5
    max_answers_per_task: float = 4.0
    checkpoints: tuple = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
    reinfer_em_iters: int = 3  # EM iterations of a warm re-inference
    seed: int = 0


def run_simulation(
    world: HiddenWorld,
    policy,
    inference: str,
    config: SimConfig,
) -> pd.DataFrame:
    """Drive the online loop; returns one record per checkpoint:
    (avg_answers, error_rate, mnad, n_answers).

    ``inference`` ∈ {"tcrowd", "mv", "crh", "catd"}: the truth-inference
    method used both for the checkpoint metrics and (for "tcrowd") to feed
    the model-based assignment policies.
    """
    from ..baselines.catd import catd
    from ..baselines.crh import crh
    from ..baselines.voting import mv_median

    rng = np.random.default_rng(config.seed)
    schema = world.schema
    n_rows, n_cols = world.truth_grid.shape
    n_cells = n_rows * n_cols
    truth_frame = world.truth_frame()
    budget = int(config.max_answers_per_task * n_cells)

    recs: list[dict] = []
    # The answer log, one typed column per field, filled up to n_answers; a
    # pick adds at most batch_size answers.
    cap = max(budget, n_cells) + config.batch_size
    log = {f: np.zeros(cap, np.int64) for f in ("worker", "row", "col")} | {"value": np.zeros(cap)}
    n_answers = 0

    pw = participation_weights(world.pool.n_workers)

    def collect(worker: int, cells: list[tuple[int, int]]):
        nonlocal n_answers
        for row, col in cells:
            val = world.answer(worker, row, col)
            for f, x in zip(log, (worker, row, col, val)):
                log[f][n_answers] = x
            n_answers += 1

    # Bootstrap: every task gets one answer (Alg. 2 line 1), collected
    # row-wise like HITs.
    for row in range(n_rows):
        w = int(rng.choice(world.pool.n_workers, p=pw))
        collect(w, [(row, j) for j in range(n_cols)])

    def answers_so_far() -> pd.DataFrame:
        return pd.DataFrame({f: x[:n_answers] for f, x in log.items()})

    def infer(df: pd.DataFrame, warm: EMState | None, full: bool):
        return tcrowd_em(
            df,
            schema,
            n_rows=n_rows,
            n_workers=world.pool.n_workers,
            warm_state=warm,
            max_iter=MAX_ITER if full else config.reinfer_em_iters,
        )

    needs_model = inference == "tcrowd"
    res = infer(answers_so_far(), None, True) if needs_model else None
    err_model = None
    next_cp = 0
    step = 0

    def checkpoint_metrics(df: pd.DataFrame) -> tuple[float, float]:
        if inference == "tcrowd":
            est = res.truth
        elif inference == "mv":
            est = mv_median(df, schema)
        elif inference == "crh":
            est = crh(df, schema)
        elif inference == "catd":
            est = catd(df, schema)
        else:
            raise ValueError(inference)
        return (
            error_rate(est, truth_frame, schema),
            mnad(est, truth_frame, schema),
        )

    while n_answers < budget:
        worker = int(rng.choice(world.pool.n_workers, p=pw))
        df = answers_so_far()
        if needs_model:
            if step % FULL_EM_EVERY == 0:
                res = infer(df, res.state, True)
                err_model = fit_error_model(df, res.estimate, schema)
            else:
                res = infer(df, res.state, False)
        view = AssignmentView(
            schema=schema,
            n_rows=n_rows,
            answers=df,
            result=res,
            error_model=err_model,
        )
        cells = policy.pick(view, worker, config.batch_size)
        if not cells:
            break
        collect(worker, cells)
        step += 1

        avg = n_answers / n_cells
        while next_cp < len(config.checkpoints) and avg >= config.checkpoints[next_cp]:
            cur = answers_so_far()
            if needs_model:
                res = infer(cur, res.state, True)
            er, mn = checkpoint_metrics(cur)
            recs.append(
                {
                    "avg_answers": config.checkpoints[next_cp],
                    "error_rate": er,
                    "mnad": mn,
                    "n_answers": n_answers,
                }
            )
            next_cp += 1

    return pd.DataFrame(recs)
