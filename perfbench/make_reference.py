"""Regenerate reference.json: the inputs of atlas_sweep and the frozen
answers of all three workloads, each cross-checked against an independent
route before it is written.

    PYTHONPATH=src python3 perfbench/make_reference.py

Needs networkx (a test dependency) for the graph atlas.  The benchmark
itself reads only the written file.
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import workloads
from symdef import cli, covers, sdefect
from symdef.graphs import Graph, cycle, parse_family

ROOT = workloads.HERE.parent


def expect(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"reference cross-check failed: {what}")


def complete_closed_form(n: int, m: int) -> int:
    k, parity = divmod(m - 1, 2)
    return n * k + 1 if parity == 1 else n * k


def frozen_sequences() -> dict:
    """The list literals of the acceptance tests' FROZEN_SEQUENCES, read
    without importing the test module."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "FROZEN_SEQUENCES":
            return {
                ast.literal_eval(key): ast.literal_eval(value)
                for key, value in zip(node.value.keys, node.value.values)
                if isinstance(value, ast.List)
            }
    raise LookupError("FROZEN_SEQUENCES not found")


def sdefect_by_enumeration(G: Graph, m: int) -> int:
    """Independent route: m-covers by direct enumeration, membership in
    J^m by searching for a factorization into m minimal vertex covers."""
    gens = covers.enumerate_minimal_mcovers(G, 1)

    @lru_cache(maxsize=None)
    def member(f: tuple, k: int) -> bool:
        if k == 0:
            return True
        for g in gens:
            if all(a <= b for a, b in zip(g.exps, f)):
                if member(tuple(b - a for a, b in zip(g.exps, f)), k - 1):
                    return True
        return False

    return sum(not member(f.exps, m) for f in covers.enumerate_minimal_mcovers(G, m))


def atlas() -> list[dict]:
    import networkx as nx

    out = []
    for H in nx.graph_atlas_g():
        n = H.number_of_nodes()
        if 1 <= n <= 6 and nx.is_connected(H):
            edges = sorted((min(i, j), max(i, j)) for i, j in H.edges())
            G = Graph.from_edges(n, edges)
            answer = workloads.atlas_answer(G)
            values = answer["sdefect"]
            expect(values == [sdefect_by_enumeration(G, m) for m in workloads.ATLAS_M], edges)
            expect(answer["decomposition"] and answer["classification_agrees"], edges)
            expect(answer["indecomposable_2covers"] == values[1], edges)
            expect(answer["unique_extra_2cover"] == (values[1] == 1), edges)
            out.append({"n": n, "edges": edges, "sdefect": values,
                        "unique_extra_2cover": answer["unique_extra_2cover"]})
    expect(len(out) == 143, len(out))
    return out


def deep_power() -> dict:
    out = {}
    for spec, m in workloads.DEEP_POWER:
        out[f"{spec} m={m}"] = sdefect.sdefect_brute(parse_family(spec), m).value
        if spec.startswith("K"):
            expect(out[f"{spec} m={m}"] == complete_closed_form(int(spec[1:]), m), spec)
    # brute-force values confirmed by two enumeration routes (see README)
    expect((out["C9 m=5"], out["C9 m=6"], out["C11 m=5"]) == (102, 226, 187), out)
    for m in range(1, 5):
        expect(out[f"C9 m={m}"] == sdefect_by_enumeration(cycle(9), m), m)
    return out


def cli_session(deep: dict) -> dict:
    out = {}
    with tempfile.TemporaryDirectory(dir=workloads.HERE, prefix=".work-") as tmp:
        for name, argv in workloads.cli_argvs(0, Path(tmp)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            summary = workloads.cli_summary(name, json.loads(buf.getvalue()))
            out[name] = {"exit": code, "summary": summary}
    for row in out["verify kn"]["summary"]:
        expect(row["got"] == complete_closed_form(row["n"], row["m"]), row)
    frozen = frozen_sequences()
    brute = {9: {m: deep[f"C9 m={m}"] for m in range(1, 7)}}
    for n in (5, 7):
        brute[n] = dict(enumerate(frozen[f"C{n}"], start=1))
    for row in out["verify cycle"]["summary"]:
        expect(row["brute"] == brute[row["n"]][row["m"]], row)
    expect(out["fit C7"]["summary"][0]["sequence"] == frozen["C7"], "fit C7")
    c7_12 = out["sdefect C7 cycle"]["summary"][0]["sdefect"]
    expect(c7_12 == 876 == sdefect.sdefect_brute(cycle(7), 12).value, c7_12)
    k6 = out["sdefect K6 recursion"]["summary"][0]["sdefect"]
    expect(k6 == complete_closed_form(6, 12), k6)
    return out


def main() -> int:
    deep = deep_power()
    reference = {"deep_power": deep, "atlas": atlas(), "cli_session": cli_session(deep)}
    # one atlas graph per line keeps the file reviewable
    atlas_lines = ",\n".join("  " + json.dumps(e, sort_keys=True) for e in reference.pop("atlas"))
    body = json.dumps(reference, indent=1, sort_keys=True)
    text = '{\n "atlas": [\n' + atlas_lines + "\n ],\n" + body[2:] + "\n"
    json.loads(text)
    workloads.REFERENCE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
