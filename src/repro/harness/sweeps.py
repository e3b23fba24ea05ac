"""§6.5 synthetic sweeps, tabulated (the data behind Figures 7–10).

Four experiments, each varying one generator parameter with the rest at the
paper's defaults (M=10, R=0.5, mean difficulty 1.0):

* ``columns``    — M ∈ {5, 10, 20, 50}           (Fig. 7)
* ``ratio``      — R ∈ {0, 0.25, 0.5, 0.75, 1}   (Fig. 8)
* ``difficulty`` — μ{α_i β_j} ∈ {0.5, 1, 2, 3}    (Fig. 9)
* ``noise``      — γ ∈ {0.1, 0.2, 0.3, 0.4} answers perturbed on the
  Celebrity-like dataset                           (Fig. 10)

Replicates fan out over Spark via ``applyInPandas`` (the paper averages 100
generated datasets; we default to 10 replicates — enough for stable
orderings at a fraction of the cost; raise ``n_reps`` in the job to match).
Methods compared: T-Crowd vs the two heterogeneous baselines CRH and CATD
(plus GTM for the noise experiment's MNAD, as in Fig. 10).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from ..baselines.catd import catd
from ..baselines.crh import crh
from ..baselines.gtm import gtm
from ..core.em import tcrowd_em
from ..crowd import datasets
from ..crowd.metrics import error_rate, mnad

_METHODS = {
    "T-Crowd": lambda a, s: tcrowd_em(a, s).truth,
    "CRH": crh,
    "CATD": catd,
    "GTM": gtm,
}

_RESULT_SCHEMA = T.StructType(
    [
        T.StructField("experiment", T.StringType()),
        T.StructField("param", T.DoubleType()),
        T.StructField("rep", T.LongType()),
        T.StructField("method", T.StringType()),
        T.StructField("error_rate", T.DoubleType()),
        T.StructField("mnad", T.DoubleType()),
    ]
)

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


def _run_spec(pdf: pd.DataFrame) -> pd.DataFrame:
    experiment = pdf["experiment"].iloc[0]
    param = float(pdf["param"].iloc[0])
    rep = int(pdf["rep"].iloc[0])
    ds = _make_dataset(experiment, param, rep)
    recs = []
    for method, fn in _METHODS.items():
        if method == "GTM" and experiment != "noise":
            continue
        est = fn(ds.answers, ds.schema)
        recs.append(
            {
                "experiment": experiment,
                "param": param,
                "rep": rep,
                "method": method,
                "error_rate": error_rate(est, ds.truth, ds.schema),
                "mnad": mnad(est, ds.truth, ds.schema),
            }
        )
    return pd.DataFrame(recs)


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
    results = (
        spark.createDataFrame(specs)
        .groupBy("experiment", "param", "rep")
        .applyInPandas(lambda pdf: _run_spec(pdf), _RESULT_SCHEMA)
        .toPandas()
    )
    return (
        results.groupby(["experiment", "param", "method"], sort=False)[
            ["error_rate", "mnad"]
        ]
        .mean()
        .reset_index()
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
