"""Integration tests for the table harnesses (smoke + layout + oracle)."""
import json

import numpy as np
import pandas as pd
import pytest
from pyspark import TaskContext

from repro.crowd.simulator import SimConfig
from repro.harness.assignment_tables import (
    END_TO_END_SYSTEMS,
    HEURISTICS,
    build_assignment_table,
    format_assignment_table,
)
from repro.harness.grid import fan_out
from repro.harness.methods import METHOD_SCOPE, TABLE7_METHODS
from repro.harness.sweeps import SWEEP_VALUES, build_sweep, format_sweep
from repro.harness.table6 import (
    PAPER_TABLE6,
    build_table6,
    dataset_stats_spark,
    format_table6,
)
from repro.harness.table7 import PAPER_TABLE7, build_table7, format_table7
from repro.oracle import assert_equivalent


class TestFanOut:
    """The grid runner on a fake ``run``: 2 spec keys × 3 replicates."""

    SPECS = pd.DataFrame(
        [{"name": n, "param": p, "rep": r} for n, p in [("a", 0.5), ("b", 2.0)] for r in range(3)]
    )

    @staticmethod
    def _frame(spec: dict) -> pd.DataFrame:
        """Two methods' metrics, a function of every spec value; ``y`` has
        no MNAD."""
        er = spec["param"] * (spec["rep"] + 1) / 7.0
        return pd.DataFrame(
            {"method": ["x", "y"], "error_rate": [er, er / 3.0], "mnad": [spec["rep"] / 9.0, np.nan]}
        )

    @pytest.fixture(scope="class")
    def ran(self, spark, tmp_path_factory):
        """``(fan_out result, one record per run call)``; each call leaves a
        file naming its spec and its Spark partition."""
        calls = tmp_path_factory.mktemp("calls")

        def run(spec: dict) -> pd.DataFrame:
            part = TaskContext.get().partitionId()
            rec = {**spec, "types": [type(spec[k]).__name__ for k in spec], "part": part}
            (calls / f"{spec['name']}-{spec['rep']}-{part}").write_text(json.dumps(rec))
            return self._frame(spec)

        out = fan_out(spark, self.SPECS, run, "method string, error_rate double, mnad double", "rep")
        return out, [json.loads(f.read_text()) for f in sorted(calls.iterdir())]

    def test_each_spec_runs_once_with_its_values(self, ran):
        _, recs = ran
        assert sorted((r["name"], r["param"], r["rep"]) for r in recs) == sorted(
            self.SPECS.itertuples(index=False, name=None)
        )
        assert all(r["types"] == ["str", "float", "int"] for r in recs)

    def test_spec_columns_first_with_their_types(self, ran):
        out, _ = ran
        assert list(out.columns) == ["name", "param", "method", "error_rate", "mnad"]
        assert out["name"].map(type).eq(str).all()
        assert out["param"].dtype == np.float64

    def test_equals_pandas_mean_over_replicates(self, ran):
        out, _ = ran
        frames = [
            self._frame(spec).assign(**spec) for spec in self.SPECS.to_dict("records")
        ]
        want = (
            pd.concat(frames, ignore_index=True)
            .groupby(["name", "param", "method"], sort=False)[["error_rate", "mnad"]]
            .mean()
            .reset_index()
        )
        pd.testing.assert_frame_equal(out, want, check_exact=True)

    def test_one_partition_per_spec(self, ran):
        _, recs = ran
        assert len({r["part"] for r in recs}) == len(self.SPECS)


class TestTable6:
    def test_matches_paper_exactly(self, spark):
        measured = build_table6(spark)
        merged = measured.merge(PAPER_TABLE6, on="dataset", suffixes=("_m", "_p"))
        assert len(merged) == 3
        for col in ["rows", "columns", "cells", "ans_per_task"]:
            np.testing.assert_allclose(merged[f"{col}_m"], merged[f"{col}_p"])

    def test_stats_oracle(self, spark, tiny_ds):
        a_df, _ = tiny_ds.to_spark(spark)
        assert_equivalent(
            dataset_stats_spark(a_df),
            """
            SELECT count(DISTINCT row) AS rows,
                   count(DISTINCT col) AS columns,
                   (SELECT count(*) FROM (SELECT DISTINCT row, col FROM answers)) AS cells,
                   count(*) / (SELECT count(*) FROM (SELECT DISTINCT row, col FROM answers)) AS ans_per_task
            FROM answers
            """,
            answers=tiny_ds.answers,
        )

    def test_format_contains_all_datasets(self, spark):
        txt = format_table6(build_table6(spark))
        for name in ["Celebrity", "Restaurant", "Emotion"]:
            assert name in txt


class TestTable7:
    @pytest.fixture(scope="class")
    def table(self, spark):
        return build_table7(spark, n_seeds=1)

    def test_all_methods_present(self, table):
        assert set(table["method"]) == set(TABLE7_METHODS)

    def test_scopes_respected(self, table):
        for _, row in table.iterrows():
            scope = METHOD_SCOPE[row["method"]]
            if row["dataset"] == "emotion" and "cont" not in scope:
                assert pd.isna(row["error_rate"]) and pd.isna(row["mnad"])
            if "cat" not in scope:
                assert pd.isna(row["error_rate"])
            if "cont" not in scope:
                assert pd.isna(row["mnad"])

    def test_tcrowd_competitive(self, table):
        # Single-seed smoke bound: T-Crowd within 25% of the best method on
        # every dataset×metric (the 5-seed job asserts dominance shape).
        for dataset in ["celebrity", "restaurant", "emotion"]:
            sub = table[table["dataset"] == dataset]
            for metric in ["error_rate", "mnad"]:
                vals = sub.set_index("method")[metric].dropna()
                if vals.empty:
                    continue
                tc = vals.get("T-Crowd")
                assert tc is not None
                assert tc <= vals.min() * 1.25 + 1e-9

    def test_paper_reference_complete(self):
        for method in TABLE7_METHODS:
            assert any(k[0] == method for k in PAPER_TABLE7)

    def test_format_renders(self, table):
        txt = format_table7(table)
        assert "T-Crowd" in txt and "Zencrowd" in txt
        assert "0." in txt


class TestAssignmentTable:
    def test_heuristics_smoke(self, spark):
        cfg = SimConfig(
            batch_size=5,
            max_answers_per_task=1.5,
            checkpoints=(1.0, 1.5),
        )
        table = build_assignment_table(
            spark,
            dataset="restaurant",
            experiment="heuristics",
            n_seeds=1,
            config=cfg,
        )
        assert set(table["system"]) == set(HEURISTICS)
        assert set(table["avg_answers"]) == {1.0, 1.5}
        txt = format_assignment_table(table, "t")
        assert "Error Rate" in txt

    def test_end_to_end_systems_registered(self):
        assert set(END_TO_END_SYSTEMS) == {"T-Crowd", "CDAS", "AskIt!", "CRH", "CATD"}


class TestSweeps:
    def test_sweep_values_cover_paper_ranges(self):
        assert min(SWEEP_VALUES["columns"]) == 5.0
        assert max(SWEEP_VALUES["columns"]) == 50.0
        assert SWEEP_VALUES["ratio"][0] == 0.0 and SWEEP_VALUES["ratio"][-1] == 1.0
        assert SWEEP_VALUES["difficulty"] == [0.5, 1.0, 2.0, 3.0]

    def test_difficulty_sweep_smoke(self, spark, monkeypatch):
        import repro.harness.sweeps as sweeps

        monkeypatch.setitem(sweeps.SWEEP_VALUES, "difficulty", [0.5, 3.0])
        table = build_sweep(spark, "difficulty", n_reps=1)
        assert set(table["method"]) == {"T-Crowd", "CRH", "CATD"}
        # Harder tasks → worse metrics for every method.
        for method in ["T-Crowd", "CRH", "CATD"]:
            sub = table[table["method"] == method].sort_values("param")
            assert sub["error_rate"].iloc[-1] >= sub["error_rate"].iloc[0] - 0.02
        txt = format_sweep(table, "t")
        assert "error_rate" in txt
