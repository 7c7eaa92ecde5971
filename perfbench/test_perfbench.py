"""Self-tests of the benchmark: span arithmetic, answer checks, relabeling.

    python3 -m pytest -q perfbench
"""
import copy
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from symdef.graphs import Graph  # noqa: E402

REFERENCE = workloads.load_reference()


def test_self_time_subtracts_child_coverage():
    ticks = iter([0, 1, 3, 4, 5, 6, 8, 10])
    rec = tracer.SpanRecorder(clock=lambda: next(ticks))
    outer = rec.open("outer")  # 0..10
    a = rec.open("child")  # 1..3
    rec.close(a)
    b = rec.open("child")  # 4..8
    c = rec.open("leaf")  # 5..6
    rec.close(c)
    rec.close(b)
    rec.close(outer)
    assert rec.self_times() == {"outer": 4, "child": 2 + 3, "leaf": 1}
    stats = rec.layer_stats()
    assert (stats["outer.calls"], stats["child.calls"], stats["leaf.calls"]) == (1, 2, 1)


def test_overlapping_children_are_covered_once():
    rec = tracer.SpanRecorder()
    rec.spans = [["outer", 0, 10, -1], ["x", 1, 4, 0], ["y", 2, 6, 0], ["z", 9, 12, 0]]
    assert rec.self_times() == {"outer": 10 - 5 - 1, "x": 3, "y": 4, "z": 3}


def test_wrong_deep_power_answer_is_flagged():
    answers = dict(REFERENCE["deep_power"])
    assert workloads.check_deep_power(answers, REFERENCE) == []
    answers["C9 m=7"] += 1
    answers["K7 m=10"] = {"error": "RuntimeError()"}
    assert workloads.check_deep_power(answers, REFERENCE) == ["C9 m=7", "K7 m=10"]


def test_wrong_atlas_answer_is_flagged():
    answers = {"graph 100": workloads.atlas_answer(_atlas_graph(100))}
    failed = workloads.check_atlas(answers, REFERENCE)
    assert "graph 100" not in failed and len(failed) == len(REFERENCE["atlas"]) - 1
    answers["graph 100"]["sdefect"][2] += 1
    assert "graph 100" in workloads.check_atlas(answers, REFERENCE)
    answers["graph 100"] = {"error": "ValueError()"}
    assert "graph 100" in workloads.check_atlas(answers, REFERENCE)


def test_wrong_cli_answers_are_flagged():
    ref = REFERENCE["cli_session"]
    report = {"results": copy.deepcopy(ref["waldschmidt C9"]["summary"])}
    assert workloads.check_cli("waldschmidt C9", 0, report, REFERENCE) == (True, [])
    assert not workloads.check_cli("waldschmidt C9", 3, report, REFERENCE)[0]
    report["results"][0]["waldschmidt"] = "5"
    assert not workloads.check_cli("waldschmidt C9", 0, report, REFERENCE)[0]
    assert not workloads.check_cli("waldschmidt C9", 1, None, REFERENCE)[0]
    assert not workloads.check_cli("waldschmidt C9", 0, {"rows": []}, REFERENCE)[0]


def test_verify_cycle_accepts_only_the_known_defect():
    rows = copy.deepcopy(REFERENCE["cli_session"]["verify cycle"]["summary"])
    ok, known = workloads.check_cli("verify cycle", 2, {"results": rows}, REFERENCE)
    assert ok and len(known) == 2 and "C9 m=5" in known[0]
    # a fixed recursion is still right
    fixed = [dict(r, recursion=r["brute"], **{"pass": True}) for r in rows]
    assert workloads.check_cli("verify cycle", 0, {"results": fixed}, REFERENCE) == (True, [])
    # a new mismatch, a wrong brute value or a silent exit code is wrong
    new = copy.deepcopy(fixed)
    new[0].update(recursion=new[0]["brute"] + 1, **{"pass": False})
    assert not workloads.check_cli("verify cycle", 2, {"results": new}, REFERENCE)[0]
    brute = copy.deepcopy(fixed)
    brute[-1]["brute"] += 1
    brute[-1]["recursion"] += 1
    assert not workloads.check_cli("verify cycle", 0, {"results": brute}, REFERENCE)[0]
    assert not workloads.check_cli("verify cycle", 0, {"results": rows}, REFERENCE)[0]


def _atlas_graph(i: int) -> Graph:
    entry = REFERENCE["atlas"][i]
    return Graph.from_edges(entry["n"], entry["edges"])


def test_relabeling_leaves_answers_unchanged():
    for i in (60, 142):  # a 5-vertex graph and K6
        G = _atlas_graph(i)
        want = workloads.atlas_answer(G)
        assert want["sdefect"] == REFERENCE["atlas"][i]["sdefect"]
        for seed in range(3):
            edges = workloads.relabel(G.n, G.edge_list(), random.Random(seed))
            assert workloads.atlas_answer(Graph.from_edges(G.n, edges)) == want


def _workdir():
    """A scratch directory inside the checkout, as the benchmark uses."""
    return tempfile.TemporaryDirectory(dir=HERE, prefix=".work-")


def test_seeded_inputs_repeat_and_keep_label_sensitive_graphs_canonical():
    with _workdir() as a, _workdir() as b:
        first = workloads.cli_argvs(7, Path(a))
        second = workloads.cli_argvs(7, Path(b))
        for (_name, argv_a), (_n, argv_b) in zip(first, second):
            if "--graph" in argv_a:
                text = Path(argv_a[argv_a.index("--graph") + 1]).read_text()
                assert text == Path(argv_b[argv_b.index("--graph") + 1]).read_text()
    cycle_cmd = dict(first)["sdefect C7 cycle"]
    assert "--family" in cycle_cmd and "--graph" not in cycle_cmd


def test_traced_cli_child_sees_names_bound_by_value():
    with _workdir() as tmp:
        out = Path(tmp) / "child.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--cli", "--trace", "--out", str(out),
             "--", "sdefect", "--family", "C5", "--m", "1..3", "--format", "json"],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        layers = json.loads(out.read_text())["layers"]
    assert [r["sdefect"] for r in json.loads(proc.stdout)["results"]] == [0, 1, 5]
    assert layers["sdefect.sdefect_brute.calls"] == 3
    # sdefect.py imports symbolic_power and ordinary_power by value: its
    # three calls of each are seen next to the calls inside covers.py
    # (cover_ideal -> symbolic_power(G, 1); ordinary_power(G, m - 1)).
    assert layers["covers.symbolic_power.calls"] == 3 + 1
    assert layers["covers.symbolic_power.repeat_calls"] == 1
    assert layers["covers.ordinary_power.calls"] == 3 + 2
    assert layers["covers.ordinary_power.repeat_calls"] == 2
    assert layers["sdefect.sdefect_brute.witnesses"] == 0 + 1 + 5
