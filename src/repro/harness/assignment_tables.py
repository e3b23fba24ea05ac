"""Tabulated task-assignment experiments (the data behind Figures 2 and 5).

* **End-to-end (Fig. 2)** — full systems (assignment policy + its own
  inference method) on the simulated datasets: T-Crowd (structure-aware IG
  + EM inference), CDAS, AskIt! (both with their MV/median inference), and
  CRH / CATD with random assignment.
* **Heuristics (Fig. 5)** — Random / Looping / Entropy / Inherent IG /
  Structure-Aware IG, all paired with T-Crowd inference, on Restaurant.

Each run gets a *fresh* hidden world re-created from the same generator
seed, so policies face identical truth/worker populations. Each
(system, replicate) run is one task of :func:`.grid.fan_out`.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from ..core.assignment import (
    AskItPolicy,
    CdasPolicy,
    EntropyPolicy,
    InherentIGPolicy,
    LoopingPolicy,
    RandomPolicy,
    StructureAwarePolicy,
)
from ..crowd import datasets
from ..crowd.simulator import SimConfig, run_simulation, world_from_dataset
from .grid import fan_out

#: system name -> (policy factory, inference method)
END_TO_END_SYSTEMS = {
    "T-Crowd": (lambda seed: StructureAwarePolicy(), "tcrowd"),
    "CDAS": (lambda seed: CdasPolicy(seed=seed), "mv"),
    "AskIt!": (lambda seed: AskItPolicy(), "mv"),
    "CRH": (lambda seed: RandomPolicy(seed), "crh"),
    "CATD": (lambda seed: RandomPolicy(seed), "catd"),
}

HEURISTICS = {
    "Random": lambda seed: RandomPolicy(seed),
    "Looping": lambda seed: LoopingPolicy(),
    "Entropy": lambda seed: EntropyPolicy(),
    "Inherent IG": lambda seed: InherentIGPolicy(),
    "Structure-Aware IG": lambda seed: StructureAwarePolicy(),
}

def build_assignment_table(
    spark: SparkSession,
    *,
    dataset: str = "restaurant",
    experiment: str = "end_to_end",
    n_seeds: int = 2,
    config: SimConfig | None = None,
) -> pd.DataFrame:
    """Run all systems of ``experiment`` and average over replicate seeds."""
    config = config or SimConfig()
    heuristic_mode = experiment == "heuristics"
    systems = HEURISTICS if heuristic_mode else END_TO_END_SYSTEMS
    specs = pd.DataFrame(
        [
            {"dataset": dataset, "system": s, "seed": k}
            for s in systems
            for k in range(n_seeds)
        ]
    )

    def run(spec: dict) -> pd.DataFrame:
        seed = spec["seed"]
        ds = datasets.REAL_DATASETS[dataset](seed=datasets.BASE_SEED[dataset] + 100 * seed)
        if heuristic_mode:
            policy, inference = HEURISTICS[spec["system"]](seed), "tcrowd"
        else:
            factory, inference = END_TO_END_SYSTEMS[spec["system"]]
            policy = factory(seed)
        out = run_simulation(world_from_dataset(ds, seed=1000 + seed), policy, inference, config)
        return out[["avg_answers", "error_rate", "mnad"]]

    return (
        fan_out(spark, specs, run, "avg_answers double, error_rate double, mnad double", "seed")
        .sort_values(["system", "avg_answers"])
        .reset_index(drop=True)
    )


def format_assignment_table(table: pd.DataFrame, title: str) -> str:
    lines = [title]
    pivot_er = table.pivot(index="avg_answers", columns="system", values="error_rate")
    pivot_mn = table.pivot(index="avg_answers", columns="system", values="mnad")
    lines.append("Error Rate vs avg answers/task:")
    lines.append(pivot_er.round(4).to_string())
    lines.append("MNAD vs avg answers/task:")
    lines.append(pivot_mn.round(4).to_string())
    return "\n".join(lines)
