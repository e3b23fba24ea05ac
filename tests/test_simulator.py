"""Tests for the online crowdsourcing simulator."""
import json
import platform
from collections import Counter
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.core.assignment import InherentIGPolicy, RandomPolicy, StructureAwarePolicy
from repro.crowd import datasets as D
from repro.crowd import simulator
from repro.crowd.simulator import (
    HiddenWorld,
    SimConfig,
    run_simulation,
    world_from_dataset,
)
from repro.crowd.workers import make_pool, simulate_answers


@pytest.fixture()
def small_world():
    schema = D.restaurant_schema()
    g = np.random.default_rng(3)
    truth = D._uniform_truth(schema, 30, g)
    pool = make_pool(25, seed=4)
    ds = simulate_answers(schema, truth, pool, n_per_task=1, seed=5)
    return world_from_dataset(ds, seed=6)


class TestHiddenWorld:
    def test_truth_frame_layout(self, small_world):
        tf = small_world.truth_frame()
        assert len(tf) == 30 * 5
        assert list(tf.columns) == ["row", "col", "truth"]

    def test_answer_in_label_domain(self, small_world):
        for _ in range(50):
            a = small_world.answer(0, 3, 0)
            assert 0 <= a <= small_world.schema.column(0).n_labels - 1

    def test_recognition_factor_memoised(self, small_world):
        f1 = small_world._recog_factor(2, 7)
        f2 = small_world._recog_factor(2, 7)
        assert f1 == f2

    def test_good_worker_more_accurate_than_bad(self, small_world):
        phi = small_world.pool.phi
        good, bad = int(np.argmin(phi)), int(np.argmax(phi))
        col = 3  # continuous
        t = small_world.truth_grid[0, col]
        errs_g = [abs(small_world.answer(good, 0, col) - t) for _ in range(200)]
        errs_b = [abs(small_world.answer(bad, 0, col) - t) for _ in range(200)]
        assert np.mean(errs_g) < np.mean(errs_b)

    def test_world_from_dataset_preserves_truth(self):
        ds = D.restaurant_like(seed=11)
        world = world_from_dataset(ds)
        grid = world.truth_frame().merge(ds.truth, on=["row", "col"])
        np.testing.assert_allclose(grid["truth_x"], grid["truth_y"])


class TestRunSimulation:
    @pytest.fixture(autouse=True)
    def _fewer_full_em_runs(self, monkeypatch):
        monkeypatch.setattr(simulator, "FULL_EM_EVERY", 50)

    def _cfg(self, **kw):
        base = dict(
            batch_size=5,
            max_answers_per_task=2.0,
            checkpoints=(1.0, 2.0),
            seed=0,
        )
        base.update(kw)
        return SimConfig(**base)

    def test_budget_and_checkpoints(self, small_world):
        out = run_simulation(small_world, RandomPolicy(0), "mv", self._cfg())
        assert list(out["avg_answers"]) == [1.0, 2.0]
        assert out["n_answers"].iloc[-1] <= 2.0 * 150 + 5

    def test_metrics_improve_with_answers(self, small_world):
        out = run_simulation(small_world, RandomPolicy(0), "mv", self._cfg())
        assert out["mnad"].iloc[-1] <= out["mnad"].iloc[0] + 0.05

    @pytest.mark.parametrize("inference", ["tcrowd", "mv", "crh", "catd"])
    def test_all_inference_methods_run(self, small_world, inference):
        out = run_simulation(
            small_world, RandomPolicy(0), inference, self._cfg(checkpoints=(1.5,))
        )
        assert len(out) == 1
        assert np.isfinite(out["error_rate"].iloc[0])
        assert np.isfinite(out["mnad"].iloc[0])

    def test_ig_policy_runs_with_tcrowd(self, small_world):
        out = run_simulation(
            small_world, InherentIGPolicy(), "tcrowd", self._cfg()
        )
        assert len(out) == 2

    def test_no_duplicate_worker_cell_answers(self, small_world):
        # Run a sim and rebuild the answer log via the policy constraint:
        # the view filters already-answered cells, so duplicates are
        # impossible by construction; verify on a fresh small run.
        cfg = self._cfg(checkpoints=(2.0,))
        out = run_simulation(small_world, RandomPolicy(1), "mv", cfg)
        assert len(out) == 1

    def test_deterministic_given_seeds(self):
        def fresh():
            schema = D.restaurant_schema()
            g = np.random.default_rng(3)
            truth = D._uniform_truth(schema, 20, g)
            pool = make_pool(15, seed=4)
            ds = simulate_answers(schema, truth, pool, n_per_task=1, seed=5)
            return world_from_dataset(ds, seed=6)

        cfg = self._cfg(checkpoints=(1.5,))
        a = run_simulation(fresh(), RandomPolicy(7), "mv", cfg)
        b = run_simulation(fresh(), RandomPolicy(7), "mv", cfg)
        pd.testing.assert_frame_equal(a, b)


    def test_calls_go_through_the_names_the_benchmark_patches(self, small_world, monkeypatch):
        """The benchmark times a simulation by replacing ``world.answer``,
        ``policy.pick``, the simulator's ``tcrowd_em`` and
        ``fit_error_model``, and EM's kernels by attribute: each must be
        looked up where it is patched, on every call, and ``tcrowd_em``
        must get the answers so far first and ``max_iter`` by keyword."""
        from repro.core import em

        calls, answered, picks = Counter(), [], []

        def spy(owner, name, check=None):
            orig = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if check is not None:
                    check(*args, **kwargs)
                return orig(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        def infer_args(answers, schema, **kwargs):
            assert len(answers) == len(answered)
            assert "max_iter" in kwargs

        spy(small_world, "answer", lambda *args: answered.append(args))
        spy(simulator, "tcrowd_em", infer_args)
        spy(simulator, "fit_error_model")
        for name in ("run_estep", "m_step", "q_objective", "erf"):
            spy(em, name)
        policy = StructureAwarePolicy()
        spy(policy, "pick", lambda view, worker, k, /: picks.append(k))
        run_simulation(small_world, policy, "tcrowd",
                       self._cfg(max_answers_per_task=1.2, checkpoints=(1.0,)))
        assert picks and set(picks) == {5}
        names = ("answer", "tcrowd_em", "fit_error_model", "run_estep", "m_step",
                 "q_objective", "erf")
        assert all(calls[n] > 0 for n in names), calls

    def test_structure_aware_loop_runs_without_pandas_reshapes(self, small_world, monkeypatch):
        """The error-model refit and the observed errors of each arrival are
        numpy: a structure-aware run calls no ``pivot_table`` or ``dropna``."""

        def banned(*args, **kwargs):
            raise AssertionError("pandas reshape in the online loop")

        for name in ("pivot_table", "dropna"):
            monkeypatch.setattr(pd.DataFrame, name, banned)
        fits = []
        fit = simulator.fit_error_model

        def counted_fit(*args):
            fits.append(args)
            return fit(*args)

        monkeypatch.setattr(simulator, "fit_error_model", counted_fit)
        out = run_simulation(small_world, StructureAwarePolicy(), "tcrowd",
                             self._cfg(max_answers_per_task=1.2, checkpoints=(1.0,)))
        assert len(out) == 1 and fits


class TestPinnedSimulation:
    def test_structure_aware_restaurant_matches_recorded_run(self):
        """Every pick and both checkpoints of a structure-aware simulation on
        Restaurant equal, to the last bit, those of the per-cell IG scoring
        the array kernel replaced. The bits depend on libm and on numpy's
        ``exp``/``log`` and summation: the file records where they were made,
        and a failure message names both environments."""
        rec = json.loads(
            (Path(__file__).parent / "data" / "sim_structure_aware_restaurant.json").read_text()
        )
        here = {
            "machine": platform.machine(), "system": platform.system(),
            "libc": " ".join(platform.libc_ver()), "python": platform.python_version(),
            "numpy": np.__version__,
        }
        env = f"recorded on {rec['recorded_on']}, running on {here}"
        picks = []

        class Recorded(StructureAwarePolicy):
            def pick(self, view, worker, k):
                cells = super().pick(view, worker, k)
                picks.append([worker, [list(map(int, c)) for c in cells]])
                return cells

        out = run_simulation(
            world_from_dataset(D.restaurant_like(11), seed=1000),
            Recorded(),
            "tcrowd",
            SimConfig(batch_size=5, max_answers_per_task=1.3, checkpoints=(1.0, 1.3)),
        )
        assert picks == rec["picks"], env
        got = [[r.avg_answers, r.error_rate, r.mnad, r.n_answers] for r in out.itertuples()]
        assert got == rec["checkpoints"], env
