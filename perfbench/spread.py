"""Run the benchmark once per seed on each workload and report, for every
end-to-end metric, its median and the spread between its quartiles as a
share of the median, next to the metric's bound.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

With --trace-seed, each workload also gets one traced run whose per-layer
table is stored with the summary.  Use the same --seconds on both commits
when comparing two of them.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, provenance) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(l.split(" ", 2)[2]) for l in lines if l.startswith("# provenance "))
    return json.loads(lines[-1]), prov


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help='inclusive range "a-b"')
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        results = []
        for seed in seeds:
            result, prov = run_once(workload, seed, args.seconds, 0)
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        for spec in bench["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if spec["name"] != "setup_s":
                worst = max(worst, spread / spec["bound"])
            entry["metrics"][spec["name"]] = {
                "unit": spec["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": spec["bound"], "values": values,
            }
            print(f"  {spec['name']:<14} median {median:12.6g} {spec['unit']:<3}"
                  f" spread {spread:6.3f}  bound {spec['bound']}"
                  f"{'  OVER A THIRD OF BOUND' if spread > spec['bound'] / 3 else ''}", flush=True)
        if args.trace_seed is not None:
            traced, _prov = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {
                "seed": args.trace_seed,
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            }
        entry["provenance"] = {k: v for k, v in prov.items() if k not in ("seed", "trace")}
        summary["workloads"][workload] = entry
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
