"""One repetition of a workload, in a fresh interpreter.

    child.py --workload deep_power --seed 3 --out rep.json [--trace] [--setup-only]
    child.py --cli --out rep.json [--trace] -- verify kn --n 3..6 --format json

A fresh interpreter per repetition keeps symdef's unbounded caches from
turning a later repetition into cache hits.  The child writes its
measurements as one JSON object to --out; in --cli mode stdout belongs to
the symdef command itself.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _tracer():
    import tracer

    rec = tracer.SpanRecorder()
    tracer.install(rec)
    return rec


def _run_tasks(tasks):
    """[(name, thunk)] -> (latencies, answers), both keyed by task name; a
    task that raises gets an error answer and the loop goes on."""
    latencies, answers = {}, {}
    for name, thunk in tasks:
        t0 = time.perf_counter()
        try:
            answers[name] = thunk()
        except Exception as exc:  # recorded as a wrong answer by the parent
            answers[name] = {"error": repr(exc)}
        latencies[name] = time.perf_counter() - t0
    return latencies, answers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("deep_power", "atlas_sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cli", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    import symdef

    if ROOT not in Path(symdef.__file__).resolve().parents:
        print(f"error: symdef imported from {symdef.__file__}, not from {ROOT}", file=sys.stderr)
        return 1
    out: dict = {}

    if args.cli:
        import symdef.cli

        rec = _tracer() if args.trace else None
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        code = symdef.cli.main(command)
        sys.stdout.flush()
        out = {"maxrss_mb": _maxrss_mb(), "layers": rec.layer_stats() if rec else None}
        Path(args.out).write_text(json.dumps(out), encoding="utf-8")
        return code

    import workloads
    from symdef import sdefect

    if args.workload == "deep_power":
        tasks = [
            (name, lambda G=G, m=m: sdefect.sdefect_brute(G, m).value)
            for name, G, m in workloads.deep_power_inputs()
        ]
    else:
        graphs = workloads.atlas_inputs(args.seed, workloads.load_reference())
        tasks = [(name, lambda G=G: workloads.atlas_answer(G)) for name, G in graphs]
    out["ready"] = time.monotonic()
    if not args.setup_only:
        rec = _tracer() if args.trace else None
        latencies, answers = _run_tasks(tasks)
        out.update(
            latencies=latencies,
            answers=answers,
            maxrss_mb=_maxrss_mb(),
            layers=rec.layer_stats() if rec else None,
        )
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
