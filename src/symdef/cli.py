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


def _parse_m_range(text: str) -> tuple[int, int]:
    lo, hi = _parse_range(text)
    if lo < 1 or hi > sdefect.MAX_M:
        raise CLIInputError(f"m range must lie within 1..{sdefect.MAX_M}")
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


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    if isinstance(value, monomials.Monomial):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit(args, command: str, input_desc, results, warnings, started) -> None:
    report = {
        "command": command,
        "input": _jsonable(input_desc),
        "results": _jsonable(results),
        "warnings": list(warnings),
        "timing_ms": int((time.monotonic() - started) * 1000),
    }
    fmt = getattr(args, "format", "pretty")
    if fmt == "json":
        print(json.dumps(report))
    elif fmt == "tsv":
        _print_tsv(report["results"])
        for w in warnings:
            print(f"# warning: {w}", file=sys.stderr)
    else:
        print(f"# {command} {json.dumps(_jsonable(input_desc))}")
        for row in report["results"]:
            if isinstance(row, dict):
                print("  " + "  ".join(f"{k}={_fmt_cell(v)}" for k, v in row.items()))
            else:
                print(f"  {row}")
        for w in warnings:
            print(f"warning: {w}")


def _fmt_cell(v):
    if isinstance(v, list):
        return "[" + ",".join(str(x) for x in v) + "]"
    return str(v)


def _print_tsv(results) -> None:
    header: list[str] = []
    rows = [r for r in results if isinstance(r, dict)]
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    print("\t".join(header))
    for row in rows:
        print("\t".join(_fmt_cell(row.get(k, "")) for k in header))


# ---------------------------------------------------------------------------
# commands


def _cmd_cover_ideal(args) -> int:
    started = time.monotonic()
    G = _load_graph(args)
    warnings = []
    if not G.edges:
        warnings.append("edgeless graph: vacuous intersection gives the unit ideal")
    I = covers.cover_ideal(G)
    results = [
        {
            "generators": [str(g) for g in I.gens],
            "mu": I.mu(),
            "alpha": I.alpha() if not I.is_zero() else None,
        }
    ]
    _emit(args, "cover-ideal", _graph_desc(args, G), results, warnings, started)
    return EXIT_OK


def _graph_desc(args, G: graphs.Graph):
    source = args.family if getattr(args, "family", None) else getattr(args, "graph", None)
    return {"source": source, "n": G.n, "edges": [[i + 1, j + 1] for i, j in G.edge_list()]}


def _is_odd_cycle(G: graphs.Graph) -> bool:
    return G.n % 2 == 1 and G.n >= 3 and G.edges == graphs.cycle(G.n).edges


def _cmd_sdefect(args) -> int:
    started = time.monotonic()
    G = _load_graph(args)
    lo, hi = _parse_m_range(args.m)
    methods = args.method
    results, warnings = [], []
    mismatch = False
    for m in range(lo, hi + 1):
        per_method = {}
        if methods in ("brute", "all"):
            rep = sdefect.sdefect_brute(G, m)
            per_method["brute"] = rep.value
            results.append(
                {"m": m, "method": "brute", "sdefect": rep.value, "witnesses": len(rep.witnesses)}
            )
        if methods in ("recursion", "all"):
            try:
                rep = sdefect.sdefect_recursive(G, m)
            except sdefect.PreconditionError as exc:
                if methods == "recursion":
                    raise CLIInputError(str(exc)) from exc
                if exc.hypothesis == sdefect.UNIQUE_EXTRA_2COVER:
                    rep = None
                    warnings.append(f"m={m}: recursion skipped: {exc}")
                else:
                    rep = sdefect.sdefect_recursive(G, m, unchecked=True)
                    warnings.append(f"m={m}: {exc}; formula value reported unchecked")
            if rep is not None:
                per_method[rep.method] = rep.value
                results.append({"m": m, "method": rep.method, "sdefect": rep.value, "witnesses": ""})
        if methods in ("cycle", "all") and (_is_odd_cycle(G) or methods == "cycle"):
            if not _is_odd_cycle(G):
                raise CLIInputError("--method cycle requires an odd cycle graph C_n")
            rep = sdefect.sdefect_cycle(G.n, m)
            per_method["cycle-recursion"] = rep.value
            results.append({"m": m, "method": rep.method, "sdefect": rep.value, "witnesses": ""})
        if len(set(per_method.values())) > 1:
            mismatch = True
            warnings.append(f"m={m}: methods disagree: {per_method}")
    _emit(args, "sdefect", _graph_desc(args, G), results, warnings, started)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _cmd_waldschmidt(args) -> int:
    started = time.monotonic()
    G = _load_graph(args)
    if not G.edges:
        raise CLIInputError("waldschmidt needs a graph with at least one edge")
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
    warnings = []
    if rep.resurgence_lower_bound is None:
        warnings.append("resurgence bound skipped: sdefect(J(G),2) != 1")
    _emit(args, "waldschmidt", _graph_desc(args, G), results, warnings, started)
    return EXIT_OK


def _cmd_fit(args) -> int:
    started = time.monotonic()
    G = _load_graph(args)
    lo, hi = _parse_m_range(args.m)
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
    _emit(args, "fit", _graph_desc(args, G), results, [], started)
    return EXIT_OK


def _cmd_classify2(args) -> int:
    started = time.monotonic()
    G = _load_graph(args)
    results, warnings = [], []
    disagree = False
    for f in covers.minimal_mcovers(G, 2):
        cls = covers.classify_indecomposable_2cover(G, f)
        by_membership = covers.indecomposability_by_membership(G, f)
        agrees = (cls is not None) == by_membership
        disagree = disagree or not agrees
        row = {
            "cover": str(f),
            "kind": cls.kind if cls else "decomposable",
            "S": [i + 1 for i in cls.S] if cls else [],
            "T": [i + 1 for i in cls.T] if cls else [],
            "U": [i + 1 for i in cls.U] if cls else [],
            "outside_square": by_membership,
            "agrees": agrees,
        }
        results.append(row)
    if disagree:
        warnings.append("classification disagrees with membership testing")
    _emit(args, "classify2", _graph_desc(args, G), results, warnings, started)
    return EXIT_MISMATCH if disagree else EXIT_OK


def _cmd_verify(args) -> int:
    started = time.monotonic()
    identity = args.identity
    results, warnings = [], []
    ok = True
    if identity == "kn":
        n_lo, n_hi = _parse_range(args.n or "3..5")
        m_lo, m_hi = _parse_m_range(args.m or "2..8")
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
                ok = ok and passed
                results.append({"n": n, "m": m, "got": got, "expected": expected, "pass": passed})
        input_desc = {"identity": identity, "n": f"{n_lo}..{n_hi}", "m": f"{m_lo}..{m_hi}"}
    elif identity == "cycle":
        n_lo, n_hi = _parse_range(args.n or "5..7")
        m_lo, m_hi = _parse_m_range(args.m or "2..5")
        for n in range(n_lo, n_hi + 1):
            if n % 2 == 0:
                continue
            for m in range(m_lo, m_hi + 1):
                got = sdefect.sdefect_cycle(n, m).value
                expected = sdefect.sdefect_brute(graphs.cycle(n), m).value
                passed = got == expected
                ok = ok and passed
                results.append({"n": n, "m": m, "recursion": got, "brute": expected, "pass": passed})
        input_desc = {"identity": identity, "n": f"{n_lo}..{n_hi}", "m": f"{m_lo}..{m_hi}"}
    elif identity == "triangle-tail":
        n_lo, n_hi = _parse_range(args.n or "5..7")
        for n in range(n_lo, n_hi + 1):
            rep = sdefect.verify_triangle_tail(n)
            ok = ok and rep.holds
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
        m_lo, m_hi = _parse_m_range(args.m or "3..5")
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
            ok = ok and passed
            results.append({"m": m, "pass": passed})
        input_desc = {"identity": identity, **_graph_desc(args, G)}
    elif identity == "classification":
        G = _load_graph(args)
        for f in covers.minimal_mcovers(G, 2):
            cls = covers.classify_indecomposable_2cover(G, f)
            passed = (cls is not None) == covers.indecomposability_by_membership(G, f)
            ok = ok and passed
            results.append({"cover": str(f), "kind": cls.kind if cls else "decomposable", "pass": passed})
        input_desc = {"identity": identity, **_graph_desc(args, G)}
    else:  # pragma: no cover - argparse restricts choices
        raise CLIInputError(f"unknown identity {identity!r}")
    if not results:
        raise CLIInputError(f"verify {identity}: no instance in range")
    if not ok:
        warnings.append("verification failed for at least one instance")
    _emit(args, "verify", input_desc, results, warnings, started)
    return EXIT_OK if ok else EXIT_MISMATCH


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
        with contextlib.nullcontext() if cap is None else monomials.generator_cap(cap):
            return args.func(args)
    except monomials.GeneratorCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CLIInputError, graphs.GraphTooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
