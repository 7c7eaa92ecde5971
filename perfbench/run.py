"""The symdef benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload deep_power --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Each repetition runs in a fresh interpreter, closed loop, one task at a
time; repetitions continue while the next one still fits in --seconds.
Every answer is checked against reference.json.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.

End-to-end metrics, from untraced repetitions only:
  wall_s        the sum over the workload's tasks of each task's median time
  setup_s       interpreter start, imports and input generation: the median
                over setup-only children and repetitions; on cli_session the
                sum over commands of (process wall - the report's timing_ms)
  peak_rss_mb   the median over repetitions of the peak RSS of the process
                running the workload (cli_session: its largest command)
  task_p50_ms,  percentiles of the per-task medians: 143 graphs on
  task_p90_ms   atlas_sweep, 9 (graph, m) pairs on deep_power, 11 commands
                on cli_session
Failed tasks are counted in `failed`, against `attempted`.

A traced run alternates untraced and traced repetitions.  The per-layer
metrics come from tracer.py in the traced ones; cli.* and the tracing
overhead (traced minus untraced wall_s) compare the two kinds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # extra setup-only children per run, for a steadier setup_s
CHILD_TIMEOUT_S = 170


class Rep:
    """One repetition, as measured from the parent.  Per-task values are
    keyed by task name, so that medians can be taken task by task."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.elapsed = 0.0  # parent wall time of the whole repetition
        self.setup_s = 0.0  # deep_power, atlas_sweep: child start to inputs ready
        self.latencies: dict[str, float] = {}
        self.overheads: dict[str, float] = {}  # cli_session: process wall - timing_ms
        self.computes: dict[str, float] = {}  # cli_session: timing_ms
        self.maxrss_mb = 0.0
        self.attempted = 0
        self.failed: list[str] = []
        self.known: list[str] = []
        self.layers: dict[str, float] = {}


def _child(args: list[str], out: Path):
    """Run child.py; return (exit code, stdout, parent wall, start time)."""
    if out.exists():
        out.unlink()
    # the same in every environment: sources compiled at import, as in a
    # fresh checkout, and the program's default generator cap
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("SYMDEF_MAX_GENS", None)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--out", str(out), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.monotonic() - started
    if proc.returncode not in (0, 2):
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout, wall, started


def _add_layers(total: dict, part: dict | None) -> None:
    for key, value in (part or {}).items():
        total[key] = total.get(key, 0) + value


def workload_rep(workload, seed, traced, workdir, reference) -> Rep:
    rep = Rep(traced)
    out = workdir / "rep.json"
    args = ["--workload", workload, "--seed", str(seed)] + (["--trace"] if traced else [])
    code, _stdout, rep.elapsed, started = _child(args, out)
    names = workloads.task_names(workload, reference)
    rep.attempted = len(names)
    if code != 0 or not out.exists():
        rep.failed = names
        return rep
    data = json.loads(out.read_text(encoding="utf-8"))
    check = workloads.check_deep_power if workload == "deep_power" else workloads.check_atlas
    rep.failed = check(data["answers"], reference)
    rep.setup_s = data["ready"] - started
    rep.latencies = data["latencies"]
    rep.maxrss_mb = data["maxrss_mb"]
    rep.layers = data["layers"] or {}
    return rep


def setup_sample(workload, seed, workdir) -> float:
    out = workdir / "setup.json"
    code, _stdout, _wall, started = _child(
        ["--workload", workload, "--seed", str(seed), "--setup-only"], out
    )
    if code != 0:
        raise RuntimeError(f"setup-only child exited with {code}")
    return json.loads(out.read_text(encoding="utf-8"))["ready"] - started


def cli_rep(commands, traced, workdir, reference) -> Rep:
    rep = Rep(traced)
    out = workdir / "cli.json"
    for name, argv in commands:
        args = (["--cli", "--trace"] if traced else ["--cli"]) + ["--", *argv]
        code, stdout, wall, _started = _child(args, out)
        rep.elapsed += wall
        rep.attempted += 1
        rep.latencies[name] = wall
        try:
            report = json.loads(stdout)
        except ValueError:
            report = None
        ok, known = workloads.check_cli(name, code, report, reference)
        rep.known += known
        if not ok or not out.exists():
            rep.failed.append(name)
            continue
        data = json.loads(out.read_text(encoding="utf-8"))
        rep.computes[name] = report["timing_ms"] / 1000
        rep.overheads[name] = wall - rep.computes[name]
        rep.maxrss_mb = max(rep.maxrss_mb, data["maxrss_mb"])
        _add_layers(rep.layers, data["layers"])
    return rep


def run_reps(workload, seed, seconds, trace, workdir, reference):
    """Repetitions until the next one would overrun --seconds; a traced
    run alternates untraced and traced ones and has at least one of each."""
    started = time.monotonic()
    setups = []
    if workload != "cli_session":
        setups = [setup_sample(workload, seed, workdir) for _ in range(SETUP_SAMPLES)]
    commands = workloads.cli_argvs(seed, workdir) if workload == "cli_session" else None
    reps: list[Rep] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        if commands is not None:
            reps.append(cli_rep(commands, traced, workdir, reference))
        else:
            reps.append(workload_rep(workload, seed, traced, workdir, reference))
        longest = max(r.elapsed for r in reps)
        complete = len(reps) >= (2 if trace else 1)
        if complete and time.monotonic() + longest > started + seconds:
            return reps, setups


def task_medians(reps, attr) -> dict[str, float]:
    """Each task's median over the repetitions.  Summing these resists the
    slow patches of a shared host better than the median of totals."""
    values: dict[str, list[float]] = {}
    for rep in reps:
        for name, value in getattr(rep, attr).items():
            values.setdefault(name, []).append(value)
    return {name: statistics.median(v) for name, v in values.items()}


def end_to_end(workload, reps, setups) -> dict:
    plain = [r for r in reps if not r.traced]
    latencies_ms = [t * 1000 for t in task_medians(plain, "latencies").values()] or [0.0]
    if workload == "cli_session":
        setup = sum(task_medians(plain, "overheads").values())
    else:
        setup = statistics.median(setups + [r.setup_s for r in plain])
    return {
        "wall_s": sum(latencies_ms) / 1000,
        "setup_s": setup,
        "peak_rss_mb": statistics.median(r.maxrss_mb for r in plain),
        "task_p50_ms": statistics.median(latencies_ms),
        "task_p90_ms": statistics.quantiles(latencies_ms, n=10)[8] if len(latencies_ms) > 1 else latencies_ms[0],
    }


def per_layer(reps, names) -> dict:
    """Counts from the first traced repetition, layer times as medians over
    the traced repetitions; names missing from the trace read 0."""
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    first = traced[0].layers
    out = {}
    for name in names:
        if name.endswith("_s"):
            out[name] = statistics.median(r.layers.get(name, 0.0) for r in traced)
        elif name.endswith(".survival"):
            base = name[: -len("survival")]
            cand = first.get(base + "candidates_in", 0)
            out[name] = first.get(base + "gens_out", 0) / cand if cand else 0.0
        else:
            out[name] = first.get(name, 0)
    # measured from outside, on the untraced repetitions (cli_session only)
    for key, attr in (("process_s", "latencies"), ("compute_s", "computes"), ("overhead_s", "overheads")):
        out[f"cli.{key}"] = sum(task_medians(plain, attr).values()) if any(r.computes for r in plain) else 0.0
    out["trace.overhead_s"] = sum(task_medians(traced, "latencies").values()) - sum(
        task_medians(plain, "latencies").values()
    )
    return out


def provenance(workload, seed, seconds, trace, reference) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    tasks = workloads.task_names(workload, reference)
    if workload == "atlas_sweep":
        tasks = [f"{tasks[0]} .. {tasks[-1]} of reference.json"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "tasks": tasks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symdef" / "__init__.py").is_file():
        print(f"error: no symdef sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = workloads.load_reference()
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        reps, setups = run_reps(
            args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp), reference
        )
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        values = per_layer(reps, [s["name"] for s in specs])
    else:
        values = end_to_end(args.workload, reps, setups)
    attempted = sum(r.attempted for r in reps)
    failed = sum(len(r.failed) for r in reps)

    plain = sum(not r.traced for r in reps)
    print("# provenance " + json.dumps(provenance(args.workload, args.seed, args.seconds, args.trace, reference)))
    tasks = len(task_medians([r for r in reps if not r.traced], "latencies"))
    print(f"# repetitions: {plain} untraced, {len(reps) - plain} traced; setup samples:"
          f" {len(setups) + plain}; task latencies: {tasks} tasks,"
          f" each the median of its {plain} untraced repetitions")
    print("# repetition totals (s): " + " ".join(
        f"{sum(r.latencies.values()):.3f}{'(traced)' if r.traced else ''}" for r in reps))
    for spec in specs:
        print(f"{spec['name']:<55} {values[spec['name']]:>14.6g} {spec['unit']}")
    print(f"failed {failed} / attempted {attempted} (failed_ratio {failed / attempted:.4g})")
    traced = [r for r in reps if r.traced]
    unsteady = sorted({
        k for r in traced[1:] for k, v in r.layers.items()
        if not k.endswith("_s") and v != traced[0].layers.get(k)
    })
    if unsteady:
        print("# counts differ between traced repetitions: " + ", ".join(unsteady))
    wrong = sorted({n for r in reps for n in r.failed})
    if wrong:
        more = f" and {len(wrong) - 10} more" if len(wrong) > 10 else ""
        print(f"# wrong answers: {', '.join(wrong[:10])}{more}")
    for defect in sorted({k for r in reps for k in r.known}):
        print(f"# known defect (reported by the program, not counted as failed): {defect}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
