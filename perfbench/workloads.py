"""Task lists, seeded inputs and answer checks of the three workloads.

The seed relabels the vertices of each graph by a random permutation.
Every answer checked here is invariant under relabeling, so one frozen
reference (`reference.json`) serves every seed.  Graphs whose code path or
work depends on their labels keep the canonical ones: the odd-cycle
recursion of the CLI accepts only the canonical C_n, and deep_power's few
large symbolic powers change size with the edge order (see
`deep_power_inputs`).
"""
from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ("deep_power", "atlas_sweep", "cli_session")

# sdefect_brute on these (graph, m) pairs, in this order, one process
DEEP_POWER = tuple([("C9", m) for m in range(1, 8)] + [("C11", 5), ("K7", 10)])
ATLAS_M = range(1, 6)
DECOMPOSITION_M = (3, 4, 5)

# (task name, argv after "symdef", graph given as a relabeled JSON file)
CLI_COMMANDS = (
    ("verify kn", ["verify", "kn", "--n", "3..6", "--m", "2..10"], None),
    ("verify cycle", ["verify", "cycle", "--n", "5..9", "--m", "2..6"], None),
    ("verify triangle-tail", ["verify", "triangle-tail", "--n", "5..9"], None),
    ("verify decomposition C7", ["verify", "decomposition"], "C7"),
    ("verify classification T6", ["verify", "classification"], "T6"),
    ("fit C7", ["fit", "--m", "1..10"], "C7"),
    ("sdefect C7 cycle", ["sdefect", "--family", "C7", "--m", "12", "--method", "cycle"], None),
    ("sdefect K6 recursion", ["sdefect", "--family", "K6", "--m", "12", "--method", "recursion"], None),
    ("sdefect T4 all", ["sdefect", "--m", "1..6", "--method", "all"], "T4"),
    ("waldschmidt C9", ["waldschmidt"], "C9"),
    ("classify2 C9", ["classify2"], "C9"),
)

# Rows of `verify cycle` where the odd-cycle recursion is known to disagree
# with brute force.  They stay visible as known defects; any other
# disagreement is a wrong answer.
KNOWN_CYCLE_DEFECTS = {(9, 5), (9, 6)}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges)


def task_names(workload: str, reference: dict) -> list[str]:
    if workload == "deep_power":
        return [f"{spec} m={m}" for spec, m in DEEP_POWER]
    if workload == "atlas_sweep":
        return [f"graph {i}" for i in range(len(reference["atlas"]))]
    return [name for name, _argv, _spec in CLI_COMMANDS]


def family_edges(spec: str) -> tuple[int, list[tuple[int, int]]]:
    from symdef.graphs import parse_family

    G = parse_family(spec)
    return G.n, G.edge_list()


# -- inputs


def deep_power_inputs():
    """[(task name, Graph, m)] on the canonical family graphs.

    Not relabeled: symbolic_power folds the edges in label order, so the
    labels set the sizes of the intermediate ideals.  Over seven random
    relabelings of C11 the fold at m=5 took 29.8k to 51.6k candidates and
    1.5 to 3.4 s, which would make the seed a second knob on this
    workload's few large tasks.
    """
    from symdef.graphs import parse_family

    graphs = {spec: parse_family(spec) for spec, _m in DEEP_POWER}
    names = task_names("deep_power", {})
    return [(name, graphs[spec], m) for name, (spec, m) in zip(names, DEEP_POWER)]


def atlas_inputs(seed: int, reference: dict):
    """[(task name, Graph)], each graph of the atlas relabeled."""
    from symdef.graphs import Graph

    rng = random.Random(f"atlas_sweep:{seed}")
    return [
        (name, Graph.from_edges(entry["n"], relabel(entry["n"], entry["edges"], rng)))
        for name, entry in zip(task_names("atlas_sweep", reference), reference["atlas"])
    ]


def cli_argvs(seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
    """Write each relabeled graph to `workdir` and return the commands."""
    rng = random.Random(f"cli_session:{seed}")
    written: dict[str, Path] = {}
    out = []
    for name, argv, spec in CLI_COMMANDS:
        argv = list(argv)
        if spec is not None:
            if spec not in written:
                n, edges = family_edges(spec)
                data = {"n": n, "edges": [[i + 1, j + 1] for i, j in relabel(n, edges, rng)]}
                written[spec] = workdir / f"{spec}.json"
                written[spec].write_text(json.dumps(data), encoding="utf-8")
            argv += ["--graph", str(written[spec])]
        out.append((name, argv + ["--format", "json"]))
    return out


# -- answers


def atlas_answer(G) -> dict:
    """Run every atlas_sweep check on one graph; return its answer."""
    from symdef import covers, sdefect

    values = [sdefect.sdefect_brute(G, m).value for m in ATLAS_M]
    decomposition = [
        covers.symbolic_power(G, m)
        == covers.ordinary_power(G, m).add(
            covers.symbolic_power(G, 2).multiply(covers.symbolic_power(G, m - 2))
        )
        for m in DECOMPOSITION_M
    ]
    indecomposable = agree = 0
    covers2 = covers.minimal_mcovers(G, 2)
    for f in covers2:
        structural = covers.classify_indecomposable_2cover(G, f) is not None
        indecomposable += structural
        agree += structural == covers.indecomposability_by_membership(G, f)
    predicted = (not G.is_bipartite()) and G.every_vertex_adjacent_to_every_odd_cycle()
    return {
        "sdefect": values,
        "decomposition": all(decomposition),
        "indecomposable_2covers": indecomposable,
        "classification_agrees": agree == len(covers2),
        "unique_extra_2cover": predicted,
    }


def cli_summary(name: str, report: dict):
    """The label-free part of a CLI JSON report."""
    results = report["results"]
    if name.startswith("verify classification") or name.startswith("classify2"):
        kinds = Counter(row["kind"] for row in results)
        passed = all(row.get("pass", row.get("agrees")) for row in results)
        return {"kinds": dict(sorted(kinds.items())), "pass": passed}
    if name.startswith("verify decomposition"):
        return [[row["m"], row["pass"]] for row in results]
    return results


def check_deep_power(answers: dict, reference: dict) -> list[str]:
    """Names of tasks whose answer differs from the reference."""
    names = task_names("deep_power", reference)
    return [name for name in names if answers.get(name) != reference["deep_power"][name]]


def check_atlas(answers: dict, reference: dict) -> list[str]:
    """Names of graphs whose answer differs from the reference."""
    failed = []
    for name, ref in zip(task_names("atlas_sweep", reference), reference["atlas"]):
        want = {
            "sdefect": ref["sdefect"],
            "decomposition": True,
            "indecomposable_2covers": ref["sdefect"][1],
            "classification_agrees": True,
            "unique_extra_2cover": ref["unique_extra_2cover"],
        }
        if answers.get(name) != want:
            failed.append(name)
    return failed


def check_cli(name: str, exit_code: int, report: dict | None, reference: dict):
    """(ok, known defects seen) for one CLI command; `report` is its parsed
    JSON output, or None when there was none."""
    try:
        return _check_cli(name, exit_code, report, reference["cli_session"][name])
    except (KeyError, TypeError):  # missing or malformed report
        return False, []


def _check_cli(name, exit_code, report, ref):
    summary = cli_summary(name, report)
    if name != "verify cycle":
        return exit_code == ref["exit"] and summary == ref["summary"], []
    # brute-force column must be right; the recursion may disagree only on
    # the known rows, and the exit code must report any disagreement
    known, ok = [], len(summary) == len(ref["summary"])
    for row, want in zip(summary, ref["summary"]):
        ok = ok and (row["n"], row["m"], row["brute"]) == (want["n"], want["m"], want["brute"])
        if row["recursion"] != row["brute"]:
            if (row["n"], row["m"]) in KNOWN_CYCLE_DEFECTS:
                known.append(f"sdefect_cycle C{row['n']} m={row['m']}: "
                             f"recursion {row['recursion']} != brute {row['brute']}")
            else:
                ok = False
        ok = ok and row["pass"] == (row["recursion"] == row["brute"])
    ok = ok and exit_code == (2 if known else 0)
    return ok, known
