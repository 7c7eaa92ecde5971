"""Command-line front end: graph ingestion, computation dispatch,
machine-readable reports, and identity-verification sweeps.

Exit codes: 0 success, 2 verification mismatch, 3 resource cap exceeded,
4 input error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from fractions import Fraction

from . import asymptotics, covers, graphs, monomials, sdefect

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_RESOURCE = 3
EXIT_INPUT = 4

class CLIInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises CLIInputError on a bad command line.  It and each of its
    sub-parsers take no abbreviated option, so `--m` never stands for
    `--max-gens`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CLIInputError(message)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise CLIInputError(f"empty range {text!r}")
    return lo, hi


def _parse_m_range(text: str, n: int) -> tuple[int, int]:
    lo, hi = _parse_range(text)
    if lo < 1:
        raise CLIInputError("m range must start at 1 or above")
    covers._check_power_range("symbolic", n, hi)
    return lo, hi


def _load_graph(args) -> graphs.Graph:
    if getattr(args, "family", None):
        try:
            return graphs.parse_family(args.family)
        except ValueError as exc:
            raise CLIInputError(str(exc)) from exc
    path = getattr(args, "graph", None)
    if not path:
        raise CLIInputError("one graph source is required: --family or --graph")
    try:
        return graphs.Graph.from_json_file(path)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CLIInputError(f"cannot read graph from {path}: {exc}") from exc


def _as_text(value):
    """The `json.dumps` default: fractions and monomials, the exact values
    a report holds, as strings; any other type raises TypeError."""
    if isinstance(value, (Fraction, monomials.Monomial)):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, input_desc, results, warnings, started) -> None:
    """Print one report of `args.cmd`: its rows as JSON, TSV or text."""
    if args.format == "json":
        report = {
            "command": args.cmd,
            "input": input_desc,
            "results": results,
            "warnings": warnings,
            "timing_ms": int((time.monotonic() - started) * 1000),
        }
        print(json.dumps(report, default=_as_text))
    elif args.format == "tsv":
        _print_tsv(results)
        for w in warnings:
            print(f"# warning: {w}", file=sys.stderr)
    else:
        print(f"# {args.cmd} {json.dumps(input_desc, default=_as_text)}")
        for row in results:
            print("  " + "  ".join(f"{k}={_fmt_cell(v)}" for k, v in row.items()))
        for w in warnings:
            print(f"warning: {w}")


def _fmt_cell(v):
    if isinstance(v, list):
        return "[" + ",".join(str(x) for x in v) + "]"
    return str(v)


def _print_tsv(results) -> None:
    header: list[str] = []
    for row in results:
        for key in row:
            if key not in header:
                header.append(key)
    print("\t".join(header))
    for row in results:
        print("\t".join(_fmt_cell(row.get(k, "")) for k in header))


# ---------------------------------------------------------------------------
# commands: each returns (input, result rows, warnings, exit code) to `main`


def _cmd_cover_ideal(args):
    G = _load_graph(args)
    warnings = [] if G.edges else ["edgeless graph: vacuous intersection gives the unit ideal"]
    I = covers.cover_ideal(G)
    results = [{"generators": list(I.gens), "mu": I.mu(), "alpha": I.alpha()}]
    return _graph_desc(args, G), results, warnings, EXIT_OK


def _graph_desc(args, G: graphs.Graph):
    source = args.family if getattr(args, "family", None) else getattr(args, "graph", None)
    return {"source": source, "n": G.n, "edges": [[i + 1, j + 1] for i, j in G.edge_list()]}


def _is_odd_cycle(G: graphs.Graph) -> bool:
    """Whether G is C_n under some labelling: connected, with an odd
    n >= 3 and every vertex of degree 2.  `sdefect_cycle` reads n alone,
    as the defect depends only on the isomorphism class."""
    adj = G.adjacency()
    if G.n < 3 or G.n % 2 == 0 or any(len(a) != 2 for a in adj):
        return False
    seen, todo = {0}, [0]
    while todo:
        new = adj[todo.pop()] - seen
        seen |= new
        todo += new
    return len(seen) == G.n


def _cmd_sdefect(args):
    G = _load_graph(args)
    lo, hi = _parse_m_range(args.m, G.n)
    methods = args.method
    odd_cycle = _is_odd_cycle(G)
    if methods == "cycle" and not odd_cycle:
        raise CLIInputError(
            "--method cycle requires an odd cycle: connected, odd n >= 3, every vertex of degree 2"
        )
    results, warnings = [], []
    mismatch = False
    for m in range(lo, hi + 1):
        reports = []
        if methods in ("brute", "all"):
            reports.append(sdefect.sdefect_brute(G, m))
        if methods in ("recursion", "all"):
            try:
                reports.append(sdefect.sdefect_recursive(G, m))
            except sdefect.PreconditionError as exc:
                if methods == "recursion":
                    raise CLIInputError(str(exc)) from exc
                if exc.hypothesis == sdefect.UNIQUE_EXTRA_2COVER:
                    warnings.append(f"m={m}: recursion skipped: {exc}")
                else:
                    reports.append(sdefect.sdefect_recursive(G, m, unchecked=True))
                    warnings.append(f"m={m}: {exc}; formula value reported unchecked")
        if methods in ("cycle", "all") and odd_cycle:
            reports.append(sdefect.sdefect_cycle(G.n, m))
        per_method = {}
        for rep in reports:
            per_method[rep.method] = rep.value
            witnesses = rep.value if rep.method == "brute" else ""
            results.append({"m": m, "method": rep.method, "sdefect": rep.value, "witnesses": witnesses})
        if len(set(per_method.values())) > 1:
            mismatch = True
            warnings.append(f"m={m}: methods disagree: {per_method}")
    return _graph_desc(args, G), results, warnings, EXIT_MISMATCH if mismatch else EXIT_OK


def _cmd_waldschmidt(args):
    G = _load_graph(args)
    rep = asymptotics.waldschmidt(G)
    results = [
        {
            "alpha_1": rep.alphas[0],
            "alpha_2": rep.alphas[1],
            "waldschmidt": rep.value,
            "minimizing_index": rep.minimizing_index,
            "resurgence_lower_bound": rep.resurgence_lower_bound,
        }
    ]
    reason = f"hypothesis failed: {sdefect.UNIQUE_EXTRA_2COVER}"
    warnings = [f"resurgence bound skipped: {reason}"] if rep.resurgence_lower_bound is None else []
    return _graph_desc(args, G), results, warnings, EXIT_OK


def _cmd_fit(args):
    G = _load_graph(args)
    lo, hi = _parse_m_range(args.m, G.n)
    seq = [sdefect.sdefect_brute(G, m).value for m in range(lo, hi + 1)]
    try:
        qp = asymptotics.fit_quasipolynomial(seq, start=lo, period=args.period)
    except asymptotics.NoFitError as exc:
        raise CLIInputError(f"no quasi-polynomial fit: {exc}") from exc
    results = [
        {
            "period": qp.period,
            "degree": qp.degree,
            "onset": qp.onset,
            "pieces": qp.describe(),
            "sequence": seq,
        }
    ]
    return _graph_desc(args, G), results, [], EXIT_OK


def _classification_rows(G: graphs.Graph) -> list[dict]:
    """Each minimal 2-cover with its shape class and whether that class
    agrees with the membership test."""
    rows = []
    for f in covers.minimal_mcovers(G, 2):
        cls = covers.classify_indecomposable_2cover(G, f)
        by_membership = covers.indecomposability_by_membership(G, f)
        rows.append(
            {
                "cover": str(f),
                "kind": cls.kind if cls else "decomposable",
                "S": [i + 1 for i in cls.S] if cls else [],
                "T": [i + 1 for i in cls.T] if cls else [],
                "U": [i + 1 for i in cls.U] if cls else [],
                "outside_square": by_membership,
                "agrees": (cls is not None) == by_membership,
            }
        )
    return rows


def _cmd_classify2(args):
    G = _load_graph(args)
    results = _classification_rows(G)
    disagree = not all(row["agrees"] for row in results)
    warnings = ["classification disagrees with membership testing"] if disagree else []
    return _graph_desc(args, G), results, warnings, EXIT_MISMATCH if disagree else EXIT_OK


# the options each identity of `verify` reads; it refuses any other
_VERIFY_READS = {
    "kn": ("--n", "--m"),
    "cycle": ("--n", "--m"),
    "triangle-tail": ("--n",),
    "decomposition": ("--family", "--graph", "--m"),
    "classification": ("--family", "--graph"),
}


def _cmd_verify(args):
    identity = args.identity
    reads = _VERIFY_READS[identity]
    given = [opt for opt in ("--family", "--graph", "--n", "--m") if getattr(args, opt[2:])]
    unread = [opt for opt in given if opt not in reads]
    if unread:
        raise CLIInputError(
            f"verify {identity} reads only {', '.join(reads)}; it reads no {' or '.join(unread)}"
        )
    results = []
    if identity == "kn":
        n_lo, n_hi = _parse_range(args.n or "3..5")
        m_lo, m_hi = _parse_m_range(args.m or "2..8", n_hi)
        if n_lo < 3:
            raise CLIInputError(
                "the K_n closed form needs n >= 3; compute sdefect directly below that"
            )
        for n in range(n_lo, n_hi + 1):
            G = graphs.complete(n)
            for m in range(m_lo, m_hi + 1):
                got = sdefect.sdefect_brute(G, m).value
                k, parity = divmod(m - 1, 2)
                expected = n * k + 1 if parity == 1 else n * k
                passed = got == expected
                results.append({"n": n, "m": m, "got": got, "expected": expected, "pass": passed})
        input_desc = {"identity": identity, "n": f"{n_lo}..{n_hi}", "m": f"{m_lo}..{m_hi}"}
    elif identity == "cycle":
        n_lo, n_hi = _parse_range(args.n or "5..7")
        m_lo, m_hi = _parse_m_range(args.m or "2..5", n_hi)
        for n in range(n_lo, n_hi + 1):
            if n % 2 == 0:
                continue
            for m in range(m_lo, m_hi + 1):
                got = sdefect.sdefect_cycle(n, m).value
                expected = sdefect.sdefect_brute(graphs.cycle(n), m).value
                passed = got == expected
                results.append({"n": n, "m": m, "recursion": got, "brute": expected, "pass": passed})
        input_desc = {"identity": identity, "n": f"{n_lo}..{n_hi}", "m": f"{m_lo}..{m_hi}"}
    elif identity == "triangle-tail":
        n_lo, n_hi = _parse_range(args.n or "5..7")
        for n in range(n_lo, n_hi + 1):
            rep = sdefect.verify_triangle_tail(n)
            results.append(
                {
                    "n": n,
                    "left": rep.left,
                    "right": rep.right_by_convention,
                    "convention": rep.convention or "none",
                    "pass": rep.holds,
                }
            )
        input_desc = {"identity": identity, "n": f"{n_lo}..{n_hi}"}
    elif identity == "decomposition":
        G = _load_graph(args)
        m_lo, m_hi = _parse_m_range(args.m or "3..5", G.n)
        if m_lo < 3:
            raise CLIInputError(
                f"verify decomposition: no instance in range at m = {m_lo}; "
                "the identity J^(m) = J^m + J^(2) J^(m-2) needs m >= 3"
            )
        for m in range(m_lo, m_hi + 1):
            lhs = covers.symbolic_power(G, m)
            rhs = covers.ordinary_power(G, m).add(
                covers.symbolic_power(G, 2).multiply(covers.symbolic_power(G, m - 2))
            )
            passed = lhs == rhs
            results.append({"m": m, "pass": passed})
        input_desc = {"identity": identity, **_graph_desc(args, G)}
    else:  # classification; argparse admits no other identity
        G = _load_graph(args)
        for row in _classification_rows(G):
            results.append({"cover": row["cover"], "kind": row["kind"], "pass": row["agrees"]})
        input_desc = {"identity": identity, **_graph_desc(args, G)}
    if not results:
        raise CLIInputError(f"verify {identity}: no instance in range")
    ok = all(row["pass"] for row in results)
    warnings = [] if ok else ["verification failed for at least one instance"]
    return input_desc, results, warnings, EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(p, needs_m=False):
    p.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")
    p.add_argument("--max-gens", type=int, default=None, help="generator cap override")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--family", help='family shorthand, e.g. "K5", "C7", "P4", "T3"')
    src.add_argument("--graph", help="path to a graph JSON file")
    if needs_m:
        p.add_argument("--m", required=True, help='m value or range, e.g. "3" or "1..6"')


def build_parser() -> _Parser:
    parser = _Parser(prog="symdef", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("cover-ideal", help="minimal generators, mu, alpha")
    _add_common(p)
    p.set_defaults(func=_cmd_cover_ideal)

    p = sub.add_parser("sdefect", help="symbolic defect over an m-range")
    _add_common(p, needs_m=True)
    p.add_argument("--method", choices=("brute", "recursion", "cycle", "all"), default="brute")
    p.set_defaults(func=_cmd_sdefect)

    p = sub.add_parser("waldschmidt", help="Waldschmidt constant and resurgence bound")
    _add_common(p)
    p.set_defaults(func=_cmd_waldschmidt)

    p = sub.add_parser("fit", help="quasi-polynomial fit of the sdefect sequence")
    _add_common(p, needs_m=True)
    p.add_argument("--period", type=int, default=2)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("classify2", help="classify all minimal 2-covers")
    _add_common(p)
    p.set_defaults(func=_cmd_classify2)

    p = sub.add_parser("verify", help="verify a known identity over a sweep")
    p.add_argument("identity", choices=("kn", "cycle", "triangle-tail", "decomposition", "classification"))
    p.add_argument("--n", help='vertex-count range, e.g. "3..5"')
    _add_common(p, needs_m=False)
    p.add_argument("--m", help='m range, e.g. "2..8"')
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cap = args.max_gens
        started = time.monotonic()
        with contextlib.nullcontext() if cap is None else monomials.generator_cap(cap):
            input_desc, results, warnings, code = args.func(args)
        _emit(args, input_desc, results, warnings, started)
        return code
    except monomials.GeneratorCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CLIInputError, graphs.GraphTooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
