"""Run one T-Crowd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload em-synth --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository.  The report goes to standard output;
its last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are its
per-layer metrics, and the spans are written to
``perfbench_out/trace-<workload>-seed<seed>.json``.  Workloads, metrics and
the layer each per-layer metric measures are described in README.md.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_out"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    rep = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), OUT)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = (set(rep.e2e) | set(rep.layer)) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    layer = {m["name"]: 0.0 for m in spec["per_layer"]}  # 0: layer not run here
    layer.update(rep.layer)

    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    for line in rep.notes:
        print(f"  {line}")
    print("end-to-end:")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<24} {rep.e2e[m['name']]:14.6g} {m['unit']}")
    print(f"  {'failed_frac':<24} {rep.failed / rep.attempted:14.6g} "
          f"({rep.failed} of {rep.attempted} operations)")
    if args.trace:
        print("per-layer (traced operation):")
        for name, value in layer.items():
            print(f"  {name:<24} {value:14.6g} {units[name]}")

    chosen = layer if args.trace else {m["name"]: rep.e2e[m["name"]] for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": rep.failed == 0,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
