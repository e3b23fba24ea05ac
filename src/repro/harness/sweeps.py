"""§6.5 synthetic sweeps, tabulated (the data behind Figures 7–10).

Four experiments, each varying one generator parameter with the rest at the
paper's defaults (M=10, R=0.5, mean difficulty 1.0):

* ``columns``    — M ∈ {5, 10, 20, 50}           (Fig. 7)
* ``ratio``      — R ∈ {0, 0.25, 0.5, 0.75, 1}   (Fig. 8)
* ``difficulty`` — μ{α_i β_j} ∈ {0.5, 1, 2, 3}    (Fig. 9)
* ``noise``      — γ ∈ {0.1, 0.2, 0.3, 0.4} answers perturbed on the
  Celebrity-like dataset                           (Fig. 10)

Each (parameter value, replicate) pair is one task of :func:`.grid.fan_out`
(the paper averages 100 generated datasets; we default to 10 replicates —
enough for stable orderings at a fraction of the cost; raise ``n_reps`` in
the job to match).
Methods compared: T-Crowd vs the two heterogeneous baselines CRH and CATD
(plus GTM for the noise experiment's MNAD, as in Fig. 10).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from ..crowd import datasets
from .grid import fan_out, score
from .methods import TABLE7_METHODS

_METHODS = {m: TABLE7_METHODS[m] for m in ("T-Crowd", "CRH", "CATD", "GTM")}

SWEEP_VALUES = {
    "columns": [5.0, 10.0, 20.0, 50.0],
    "ratio": [0.0, 0.25, 0.5, 0.75, 1.0],
    "difficulty": [0.5, 1.0, 2.0, 3.0],
    "noise": [0.1, 0.2, 0.3, 0.4],
}


def _make_dataset(experiment: str, param: float, rep: int):
    seed = 10_000 + 37 * rep
    if experiment == "columns":
        return datasets.synthetic_table(m=int(param), seed=seed)
    if experiment == "ratio":
        return datasets.synthetic_table(cat_ratio=param, seed=seed)
    if experiment == "difficulty":
        return datasets.synthetic_table(mean_difficulty=param, seed=seed)
    if experiment == "noise":
        base = datasets.celebrity_like(seed=datasets.BASE_SEED["celebrity"] + 100 * rep)
        return datasets.add_noise(base, gamma=param, seed=seed)
    raise ValueError(experiment)


def build_sweep(
    spark: SparkSession, experiment: str, *, n_reps: int = 10
) -> pd.DataFrame:
    specs = pd.DataFrame(
        [
            {"experiment": experiment, "param": v, "rep": r}
            for v in SWEEP_VALUES[experiment]
            for r in range(n_reps)
        ]
    )
    methods = {m: fn for m, fn in _METHODS.items() if m != "GTM" or experiment == "noise"}

    def run(spec: dict) -> pd.DataFrame:
        return score(_make_dataset(experiment, spec["param"], spec["rep"]), methods)

    return (
        fan_out(spark, specs, run, "method string, error_rate double, mnad double", "rep")
        .sort_values(["param", "method"])
        .reset_index(drop=True)
    )


def format_sweep(table: pd.DataFrame, title: str) -> str:
    lines = [title]
    for metric in ("error_rate", "mnad"):
        piv = table.pivot(index="param", columns="method", values=metric)
        if piv.notna().any().any():
            lines.append(f"{metric} by parameter value:")
            lines.append(piv.round(4).to_string())
    return "\n".join(lines)
