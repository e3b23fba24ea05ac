"""The benchmark's three workloads, each driven through the program's public
entry points: ``tcrowd_em`` (em-synth), ``run_simulation`` with a policy
object (online-restaurant) and ``tcrowd_em_spark`` (spark-em).

A workload sets up (timed as ``setup_s``), runs its operation again and
again for ``seconds`` with only the spans the end-to-end metrics are defined
by, checks every result, and, when traced, runs one more operation with a
span around each layer's public functions to give the per-layer metrics.
Heavy modules are imported inside the set-up, so their import is timed.
"""
from __future__ import annotations

import math
import os
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer, dur

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3  # set-ups per run; setup_s takes their median

# Generator parameters.  The table of each batch workload is fixed; --seed
# renumbers its rows and workers, so every seed poses the same inference
# problem (the same EM iterations) in another form.
# Other generator seeds stop at max_iter: at 2 000 rows seeds 0-2 do.
EM_SYNTH = dict(n_rows=2000, m=10, cat_ratio=0.5, mean_difficulty=1.0,
                n_workers=200, n_per_task=5, seed=3)
SPARK_EM = dict(n_rows=400, m=10, cat_ratio=0.5, mean_difficulty=1.0,
                n_workers=60, n_per_task=5, seed=3)
# The online crowd is fixed too: across crowd seeds Error Rate and MNAD at
# 2.0 answers/task spread by 17-20 % (IQR / median), wider than any bound.
ONLINE = dict(dataset_seed=11, world_seed=1000, sim_seed=0, batch_size=5,
              max_answers_per_task=2.0, checkpoints=(1.0, 1.5, 2.0))
SPARK_CORES = min(4, len(os.sched_getaffinity(0)))
SPARK_TOL = 1e-6


@dataclass
class Report:
    e2e: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += not ok
        self.notes.append(f"check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------

def _setup(report: Report, imports, prepare, warm):
    """Time ``imports`` once and ``prepare`` + ``warm`` SETUP_REPS times."""
    t = time.perf_counter()
    env = imports()
    once = time.perf_counter() - t
    reps = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        inputs = prepare(env)
        warm(env, inputs)
        reps.append(time.perf_counter() - t)
    report.e2e["setup_s"] = once + statistics.median(reps)
    report.notes.append(
        f"setup: once {once:.3f} s, per set-up {', '.join(f'{r:.3f}' for r in reps)} s"
    )
    return env, inputs


def _loop(seconds: float, op) -> list:
    """Run ``op(i)`` until ``seconds`` have passed (at least once)."""
    outs = []
    end = time.perf_counter() + seconds
    while not outs or time.perf_counter() < end:
        outs.append(op(len(outs)))
    return outs


def _pct(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _relabel(ds, seed: int):
    """The table's answers and truth under a seed-drawn renumbering of rows
    and workers.  Answers stay grouped by row, as a HIT log is, in the new
    row order."""
    import numpy as np
    import pandas as pd

    g = np.random.default_rng(seed)
    a = ds.answers
    rows = g.permutation(ds.n_rows)
    workers = g.permutation(int(a["worker"].max()) + 1)
    order = np.argsort(rows[a["row"].to_numpy(np.int64)], kind="stable")
    answers = pd.DataFrame({
        "worker": workers[a["worker"].to_numpy(np.int64)][order],
        "row": rows[a["row"].to_numpy(np.int64)][order],
        "col": a["col"].to_numpy(np.int64)[order],
        "value": a["value"].to_numpy(np.float64)[order],
    })
    truth = ds.truth.assign(row=rows[ds.truth["row"].to_numpy(np.int64)])
    return answers, truth


def _em_attrs(args, kwargs, res):
    return {"iters": res.n_iters, "converged": bool(res.converged),
            "n_answers": len(args[0])}


def _batch_e2e(report: Report, calls: list, x, est, metrics) -> None:
    """End-to-end metrics of a batch workload, where one arrival is one EM
    call; ``est`` is the last call's truth, scored against ``x.truth``."""
    d = [dur(s) for s in calls]
    wall = statistics.median(d)
    report.e2e.update({
        "em_wall_s": wall,
        "answers_per_s": len(x.answers) / wall,
        "arrival_p50_ms": 1e3 * _pct(d, 50),
        "arrival_p90_ms": 1e3 * _pct(d, 90),
        "arrivals_per_s": len(d) / sum(d),
        "error_rate": metrics.error_rate(est, x.truth, x.schema),
        "mnad": metrics.mnad(est, x.truth, x.schema),
    })
    report.notes.append(
        f"EM calls: n={len(d)}, |A|={len(x.answers)}, iterations "
        f"{[s['iters'] for s in calls]}, converged {[s['converged'] for s in calls]}"
    )


def _em_layers(tr: Tracer, calls: list) -> dict:
    """``core.em`` metrics from a traced pass; ``calls`` are EM-call spans."""
    n = len(calls)
    m_calls = len(tr.closed("em.m_step"))
    self_t = tr.self_times()
    return {
        "em.iters": sum(s["iters"] for s in calls) / n,
        "em.converged": sum(s["converged"] for s in calls) / n,
        "em.estep_s": tr.total("em.run_estep"),
        "em.estep_calls": len(tr.closed("em.run_estep")),
        "em.mstep_s": tr.total("em.m_step"),
        "em.mstep_calls": m_calls,
        "em.erf_s": tr.total("em.erf"),
        "em.erf_calls": len(tr.closed("em.erf")),
        "em.q_evals_per_mstep": len(tr.closed("em.q_objective")) / max(m_calls, 1),
        "em.self_s": sum(self_t[s["id"]] for s in tr.closed("em.tcrowd_em")),
    }


def _wrap_em(tr: Tracer, em) -> None:
    for fn in ("run_estep", "m_step", "q_objective", "erf"):
        tr.wrap(em, fn, f"em.{fn}")


def _traced(report: Report, out_dir: Path, name: str, seed: int, untraced_s: float, run):
    """Run ``run(tracer)`` once with tracing; dump the spans; report overhead."""
    tr = Tracer()
    try:
        wall = run(tr)
    finally:
        tr.restore()
    report.layer["trace.overhead_s"] = wall - untraced_s
    path = out_dir / f"trace-{name}-seed{seed}.json"
    tr.dump(path, workload=name, seed=seed, untraced_s=untraced_s, traced_s=wall)
    report.notes.append(
        f"trace: {len(tr.spans)} spans -> {path.relative_to(ROOT)}; "
        f"op {wall:.3f} s traced vs {untraced_s:.3f} s untraced"
    )
    for layer, t in sorted(tr.self_by_layer().items()):
        report.notes.append(f"self time {layer:<7} {t:10.4f} s")


def _check_cover(report: Report, truth, answers, label: str) -> None:
    import numpy as np

    finite = bool(np.isfinite(truth["truth"].to_numpy(np.float64)).all())
    got = set(zip(truth["row"].astype(int), truth["col"].astype(int)))
    want = set(zip(answers["row"].astype(int), answers["col"].astype(int)))
    report.check(f"{label} truth finite and covers every answered cell",
                 finite and got == want and len(truth) == len(want),
                 f"(finite={finite}, cells {len(got)}/{len(want)})")


# ---------------------------------------------------------------------------
# em-synth: cold tcrowd_em to convergence on the §6.5 synthetic table.
# ---------------------------------------------------------------------------

def em_synth(seed: int, seconds: float, trace: bool, out_dir: Path) -> Report:
    rep = Report()

    def imports():
        import repro.core.em as em
        from repro.crowd import datasets, metrics

        return SimpleNamespace(em=em, datasets=datasets, metrics=metrics)

    def prepare(env):
        ds = env.datasets.synthetic_table(**EM_SYNTH)
        answers, truth = _relabel(ds, seed)
        return SimpleNamespace(schema=ds.schema, answers=answers, truth=truth)

    def warm(env, x):
        env.em.tcrowd_em(x.answers, x.schema, max_iter=1)

    env, x = _setup(rep, imports, prepare, warm)
    em = env.em

    def op(tr, i):
        """One EM call, checked; only its truth is kept, so that memory does
        not grow with the number of calls."""
        tr.req = i
        res = tr.call("em.tcrowd_em", em.tcrowd_em, x.answers, x.schema, attrs=_em_attrs)
        rep.attempted += 1  # the EM call itself
        _check_cover(rep, res.truth, x.answers, f"call {i}")
        return res.truth

    tr0 = Tracer()
    truths = _loop(seconds, lambda i: op(tr0, i))
    _batch_e2e(rep, tr0.closed("em.tcrowd_em"), x, truths[-1], env.metrics)

    if trace:
        def run(tr):
            _wrap_em(tr, em)
            op(tr, "traced")
            span = tr.closed("em.tcrowd_em")[0]
            rep.layer.update(_em_layers(tr, [span]))
            return dur(span)

        _traced(rep, out_dir, "em-synth", seed, rep.e2e["em_wall_s"], run)
    rep.e2e["peak_rss_mb"] = _rss_mb()
    return rep


# ---------------------------------------------------------------------------
# online-restaurant: run_simulation with structure-aware IG assignment.
# ---------------------------------------------------------------------------

def _arrivals(tr: Tracer, policy) -> dict:
    """Make ``policy.pick`` end one arrival and start the next.

    An arrival runs from one return of ``pick`` to the next, so the first
    arrival (bootstrap answers and the first full EM) is never recorded."""
    orig = policy.pick
    state = {"open": None, "n": 0}

    def pick(view, worker, k):
        cells = tr.call("assign.pick", orig, view, worker, k)
        if state["open"] is not None:
            tr.close(state["open"])
        tr.req = state["n"]
        state["n"] += 1
        state["open"] = tr.open("sim.arrival")
        return cells

    tr.replace(policy, "pick", pick)
    return state


def online_restaurant(seed: int, seconds: float, trace: bool, out_dir: Path) -> Report:
    rep = Report()
    rep.notes.append(
        f"crowd fixed (world seed {ONLINE['world_seed']}, arrival seed "
        f"{ONLINE['sim_seed']}); --seed {seed} does not change this workload"
    )

    def imports():
        import repro.core.em as em
        from repro.core.assignment import StructureAwarePolicy
        from repro.crowd import datasets, simulator

        return SimpleNamespace(em=em, sim=simulator, datasets=datasets,
                               Policy=StructureAwarePolicy)

    def prepare(env):
        return env.datasets.restaurant_like(seed=ONLINE["dataset_seed"])

    def config(env, budget, checkpoints):
        return env.sim.SimConfig(
            batch_size=ONLINE["batch_size"], max_answers_per_task=budget,
            checkpoints=checkpoints, seed=ONLINE["sim_seed"],
        )

    def warm(env, ds):
        world = env.sim.world_from_dataset(ds, seed=ONLINE["world_seed"])
        env.sim.run_simulation(world, env.Policy(), "tcrowd", config(env, 1.05, (1.0,)))

    env, ds = _setup(rep, imports, prepare, warm)
    sim = env.sim
    cfg = config(env, ONLINE["max_answers_per_task"], ONLINE["checkpoints"])

    def infer_attrs(args, kwargs, res):
        return {**_em_attrs(args, kwargs, res),
                "full": kwargs["max_iter"] > cfg.reinfer_em_iters}

    def op(tr, layers: bool):
        """One simulation; returns (checkpoint frame, wall seconds)."""
        world = sim.world_from_dataset(ds, seed=ONLINE["world_seed"])
        policy = env.Policy()
        tr.wrap(world, "answer", "sim.crowd_answer")
        tr.wrap(sim, "tcrowd_em", "em.tcrowd_em", attrs=infer_attrs)
        if layers:
            _wrap_em(tr, env.em)
            tr.wrap(sim, "fit_error_model", "corr.fit_error_model")
            tr.wrap(policy, "gains", "assign.gains", attrs=lambda a, k, out: {"cells": len(out)})
        arrival = _arrivals(tr, policy)
        tr.req = None
        sid = tr.open("sim.run_simulation")
        try:
            out = sim.run_simulation(world, policy, "tcrowd", cfg)
            if arrival["open"] is not None:  # after the last pick: not an arrival
                tr.close(arrival["open"])["name"] = "sim.tail"
        finally:
            tr.unwind(sid)
            tr.restore()
        return out, dur(tr.spans[sid])

    def arrival_latencies(tr):
        answer = {}
        for s in tr.closed("sim.crowd_answer"):
            answer[s["parent"]] = answer.get(s["parent"], 0.0) + dur(s)
        return [dur(a) - answer.get(a["id"], 0.0) for a in tr.closed("sim.arrival")]

    def check(out, label):
        n_cells = ds.n_cells
        cps = list(out["avg_answers"]) if len(out) else []
        rep.check(f"{label} emits every checkpoint", cps == list(cfg.checkpoints),
                  f"(got {cps})")
        for rec in out.itertuples():
            ok = (rec.n_answers >= rec.avg_answers * n_cells
                  and math.isfinite(rec.error_rate) and math.isfinite(rec.mnad))
            rep.check(f"{label} checkpoint {rec.avg_answers}", ok,
                      f"(n_answers={rec.n_answers}, ER={rec.error_rate:.4f}, MNAD={rec.mnad:.4f})")

    tr0 = Tracer()
    runs = _loop(seconds, lambda i: op(tr0, False))
    for i, (out, _) in enumerate(runs):
        check(out, f"simulation {i}")
    lat = arrival_latencies(tr0)
    rep.attempted += len(lat)
    full = [s for s in tr0.closed("em.tcrowd_em") if s["full"]]
    last = runs[-1][0].iloc[-1]
    rep.e2e.update({
        "em_wall_s": statistics.median(dur(s) for s in full),
        "answers_per_s": sum(s["n_answers"] for s in full) / sum(dur(s) for s in full),
        "arrival_p50_ms": 1e3 * _pct(lat, 50),
        "arrival_p90_ms": 1e3 * _pct(lat, 90),
        "arrivals_per_s": len(lat) / sum(lat),
        "error_rate": float(last["error_rate"]),
        "mnad": float(last["mnad"]),
    })
    rep.notes.append(
        f"simulations n={len(runs)}, arrivals n={len(lat)} (first of each excluded), "
        f"full EM calls n={len(full)}, wall {[round(w, 3) for _, w in runs]} s"
    )

    if trace:
        def run(tr):
            out, wall = op(tr, True)
            check(out, "traced simulation")
            infer = tr.closed("em.tcrowd_em")
            gains_s = tr.total("assign.gains")
            cells = sum(s["cells"] for s in tr.closed("assign.gains"))
            self_t = tr.self_times()
            rep.layer.update(_em_layers(tr, infer))
            rep.layer.update({
                "sim.infer_warm_calls": sum(not s["full"] for s in infer),
                "sim.infer_full_calls": sum(s["full"] for s in infer),
                "sim.infer_s": tr.total("em.tcrowd_em"),
                "sim.loop_self_s": sum(self_t[a["id"]] for a in tr.closed("sim.arrival")),
                "sim.crowd_answer_s": tr.total("sim.crowd_answer"),
                "assign.pick_s": tr.total("assign.pick"),
                "assign.gains_s": gains_s,
                "assign.cells_scored": cells,
                "assign.cells_per_s": cells / gains_s if gains_s else 0.0,
                "corr.fit_calls": len(tr.closed("corr.fit_error_model")),
                "corr.fit_s": tr.total("corr.fit_error_model"),
            })
            return wall

        _traced(rep, out_dir, "online-restaurant", seed,
                statistics.median(w for _, w in runs), run)
    rep.e2e["peak_rss_mb"] = _rss_mb()
    return rep


# ---------------------------------------------------------------------------
# spark-em: tcrowd_em_spark to convergence on the 400x10 synthetic table.
# ---------------------------------------------------------------------------

def _start_spark(work: Path):
    """A local session with the configuration of jobs/_session.py, except
    that it uses at most SPARK_CORES cores and keeps its files under
    ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # The package is not installed.  Python workers inherit the JVM's
    # environment, so putting src on PYTHONPATH before the JVM starts lets
    # applyInPandas import repro.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    jvm_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts  # the JVM spark-submit starts first
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--driver-memory 1g --driver-java-options {shlex.quote(jvm_opts)} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{SPARK_CORES}]")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .getOrCreate()
    )


def _stop_spark(spark) -> None:
    """Stop the session and the JVM it started, and wait for the JVM to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def _spark_counts(sc, groups: list[str]) -> list[tuple[int, int, int, int]]:
    """(jobs, stages run, tasks run, E-step stage tasks) per job group.

    The E-step stage is the last stage of the group's last job: the
    ``applyInPandas`` after the shuffle on ``col``."""
    from py4j.protocol import Py4JError

    try:
        sc._jsc.sc().listenerBus().waitUntilEmpty()
    except Py4JError:  # a private API; fall back to letting events drain
        time.sleep(1.0)
    st = sc.statusTracker()
    out = []
    for g in groups:
        jobs = sorted(st.getJobIdsForGroup(g))
        stages = []
        for j in jobs:
            info = st.getJobInfo(j)
            stages += [st.getStageInfo(s) for s in (info.stageIds if info else [])]
        ran = [s for s in stages if s is not None and s.numCompletedTasks > 0]
        last = max(ran, key=lambda s: s.stageId, default=None)
        out.append((len(jobs), len(ran), sum(s.numCompletedTasks for s in ran),
                    last.numCompletedTasks if last else 0))
    return out


def _spark_traced_call(tr: Tracer, rep: Report, env, x):
    """One traced ``tcrowd_em_spark`` call; fills the ``spark.*`` metrics.

    Each iteration (the ``spark_estep`` call to the return of ``m_step``) is
    a span, and its Spark jobs run under a job group of their own."""
    se, sc = env.se, env.spark.sparkContext
    it = {"open": None, "groups": []}
    orig_estep, orig_mstep = se.spark_estep, se.m_step

    def spark_estep(*args, **kwargs):
        group = f"perfbench-iter-{len(it['groups'])}"
        sc.setJobGroup(group, group)
        it["open"] = tr.open("spark.iteration", group=group)
        return tr.call("spark.plan", orig_estep, *args, **kwargs)

    def m_step(*args, **kwargs):
        out = tr.call("em.m_step", orig_mstep, *args, **kwargs)
        it["groups"].append(tr.close(it["open"])["group"])
        it["open"] = None
        return out

    _wrap_em(tr, env.em)
    tr.replace(se, "spark_estep", spark_estep)
    tr.replace(se, "m_step", m_step)
    sid = tr.open("spark.tcrowd_em_spark")
    try:
        res = se.tcrowd_em_spark(x.a_df, x.schema)
        if it["open"] is not None:  # the final E-step, run by the truth collect
            tr.close(it["open"])["name"] = "spark.final_plan"
        sc.setJobGroup("perfbench-truth", "perfbench-truth")
        truth = tr.call("spark.truth_collect", res.truth.toPandas)
    finally:
        tr.unwind(sid)
        sc.setJobGroup("perfbench-other", "perfbench-other")
    tr.spans[sid].update(iters=res.n_iters, converged=bool(res.converged))

    iters = tr.closed("spark.iteration")
    child = {(s["parent"], s["name"]): dur(s)
             for s in tr.closed("spark.plan") + tr.closed("em.m_step")}
    plan = [child[(s["id"], "spark.plan")] for s in iters]
    mstep = [child[(s["id"], "em.m_step")] for s in iters]
    counts = _spark_counts(sc, it["groups"])
    med, mean = statistics.median, statistics.mean
    rep.layer.update(_em_layers(tr, [tr.spans[sid]]))
    rep.layer.update({
        "spark.iter_s": med(dur(s) for s in iters),
        "spark.plan_s": med(plan),
        "spark.mstep_s": med(mstep),
        "spark.estep_collect_s": med(dur(s) - p - m for s, p, m in zip(iters, plan, mstep)),
        "spark.jobs_per_iter": mean(c[0] for c in counts),
        "spark.stages_per_iter": mean(c[1] for c in counts),
        "spark.tasks_per_iter": mean(c[2] for c in counts),
        "spark.estep_stage_tasks": med(c[3] for c in counts),
    })
    rep.notes.append(
        f"spark (jobs, stages, tasks, E-step tasks) per iteration: {sorted(set(counts))}"
    )
    return res, truth, dur(tr.spans[sid])


def spark_em(seed: int, seconds: float, trace: bool, out_dir: Path) -> Report:
    rep = Report()
    rep.notes.append(f"spark master local[{SPARK_CORES}], driver memory 1g")
    env = SimpleNamespace(spark=None)

    def imports():
        import repro.core.em as em
        import repro.core.spark_em as se
        from repro.crowd import datasets, metrics
        from repro.crowd.schema import ANSWER_SPARK_SCHEMA

        env.__dict__.update(em=em, se=se, datasets=datasets, metrics=metrics,
                            answer_schema=ANSWER_SPARK_SCHEMA)
        env.spark = _start_spark(out_dir)
        return env

    def prepare(env):
        env.spark.catalog.clearCache()
        ds = env.datasets.synthetic_table(**SPARK_EM)
        answers, truth = _relabel(ds, seed)
        a_df = env.spark.createDataFrame(answers, schema=env.answer_schema).cache()
        a_df.count()
        return SimpleNamespace(schema=ds.schema, answers=answers, truth=truth, a_df=a_df)

    def warm(env, x):
        env.se.tcrowd_em_spark(x.a_df, x.schema, max_iter=1).truth.toPandas()

    def em_call(x):
        res = env.se.tcrowd_em_spark(x.a_df, x.schema)
        return res, res.truth.toPandas()

    def attrs(args, kwargs, out):
        return {"iters": out[0].n_iters, "converged": bool(out[0].converged)}

    try:
        _, x = _setup(rep, imports, prepare, warm)
        tr0 = Tracer()
        results = _loop(seconds, lambda i: tr0.call("spark.tcrowd_em_spark", em_call, x,
                                                    attrs=attrs))
        calls = tr0.closed("spark.tcrowd_em_spark")
        untraced_s = statistics.median(dur(s) for s in calls)
        if trace:
            def run(tr):
                res, truth, wall = _spark_traced_call(tr, rep, env, x)
                results.append((res, truth))
                return wall

            _traced(rep, out_dir, "spark-em", seed, untraced_s, run)
    finally:
        if env.spark is not None:
            _stop_spark(env.spark)

    # The numpy engine on the same answers, outside every timed region.
    ref = env.em.tcrowd_em(x.answers, x.schema)
    for i, (res, truth) in enumerate(results):
        rep.attempted += 1  # the EM call itself
        m = truth.merge(ref.truth, on=["row", "col"], how="outer", suffixes=("", "_np"))
        diff = float((m["truth"] - m["truth_np"]).abs().max())
        ok = (len(m) == len(truth) == len(ref.truth) and diff <= SPARK_TOL
              and res.n_iters == ref.n_iters)
        rep.check(f"call {i} truth equals the numpy engine's", ok,
                  f"(max |diff| {diff:.2e}, iterations {res.n_iters} vs {ref.n_iters})")
    _batch_e2e(rep, calls, x, results[-1][1], env.metrics)
    rep.e2e["peak_rss_mb"] = _rss_mb()
    return rep


WORKLOADS = {
    "em-synth": em_synth,
    "online-restaurant": online_restaurant,
    "spark-em": spark_em,
}
