"""Command-line front end: graph ingestion, computation dispatch,
machine-readable reports, and identity-verification sweeps.

Exit codes: 0 success, 2 verification mismatch, 3 resource cap exceeded
or memory exhausted, 4 input error.
"""
from __future__ import annotations

import argparse
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


def _range(text: str) -> tuple[int, int]:
    """The argparse type of --n and --m: k or lo..hi, as (lo, hi).  A
    malformed or empty range raises ArgumentTypeError, which argparse
    reports under the option's name."""
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected k or lo..hi, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _check_n_range(n_range: tuple[int, int], extra: int = 0) -> tuple[int, int]:
    """An --n range whose largest graph, on n + `extra` vertices, is not
    past graphs.MAX_VERTICES."""
    if n_range[1] + extra > graphs.MAX_VERTICES:
        raise graphs.GraphTooLargeError(n_range[1] + extra)
    return n_range


def _check_m_range(m_range: tuple[int, int], n: int) -> tuple[int, int]:
    if m_range[0] < 1:
        raise CLIInputError("m range must start at 1 or above")
    covers._check_power_range("symbolic", n, m_range[1])
    return m_range


def _load_graph(args) -> graphs.Graph:
    if args.graph is None:
        return graphs.parse_family(args.family)
    try:
        return graphs.Graph.from_json_file(args.graph)
    except graphs.GraphTooLargeError:  # a ValueError, but not a malformed file
        raise
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CLIInputError(f"cannot read graph from {args.graph}: {exc}") from exc


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
    if isinstance(v, dict):
        return json.dumps(v, default=_as_text)
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
    source = args.family if args.graph is None else args.graph
    return {"source": source, "n": G.n, "edges": [[i + 1, j + 1] for i, j in G.edge_list()]}


# each --method and its function, read from `sdefect` at each call so that a rebinding counts
_METHODS = {"brute": "sdefect_brute", "recursion": "sdefect_recursive", "cycle": "sdefect_cycle"}


def _cmd_sdefect(args):
    G = _load_graph(args)
    lo, hi = _check_m_range(args.m, G.n)
    methods = list(_METHODS) if args.method == "all" else [args.method]
    results, warnings = [], []
    mismatch = False
    for m in range(lo, hi + 1):
        reports = []
        for method in methods:
            try:
                reports.append(getattr(sdefect, _METHODS[method])(G, m))
            except sdefect.PreconditionError as exc:
                if args.method != "all":
                    raise
                if exc.hypothesis == sdefect.UNIQUE_EXTRA_2COVER:
                    warnings.append(f"m={m}: recursion skipped: {exc}")
                elif exc.hypothesis != sdefect.ODD_CYCLE:  # the indecomposability check
                    reports.append(sdefect.sdefect_recursive(G, m, unchecked=True))
                    warnings.append(f"m={m}: {exc}; formula value reported unchecked")
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
    reason = str(sdefect.PreconditionError(sdefect.UNIQUE_EXTRA_2COVER))
    warnings = [f"resurgence bound skipped: {reason}"] if rep.resurgence_lower_bound is None else []
    return _graph_desc(args, G), results, warnings, EXIT_OK


def _cmd_fit(args):
    G = _load_graph(args)
    lo, hi = _check_m_range(args.m, G.n)
    seq = [sdefect.sdefect_brute(G, m).value for m in range(lo, hi + 1)]
    # the symbolic Rees algebra of J(G) is generated in degree <= 2, so the period divides 2
    try:
        qp = asymptotics.fit_quasipolynomial(seq, start=lo, period=2)
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


# each identity of `verify` is one sweep: it returns (input, rows), each row with its "pass"
def _verify_kn(args):
    n_lo, n_hi = _check_n_range(args.n)
    m_lo, m_hi = _check_m_range(args.m, n_hi)
    if n_lo < 3:
        raise CLIInputError("the K_n closed form needs n >= 3; compute sdefect directly below that")
    results = []
    for n in range(n_lo, n_hi + 1):
        G = graphs.complete(n)
        for m in range(m_lo, m_hi + 1):
            got = sdefect.sdefect_brute(G, m).value
            k, parity = divmod(m - 1, 2)
            expected = n * k + 1 if parity == 1 else n * k
            results.append({"n": n, "m": m, "got": got, "expected": expected, "pass": got == expected})
    return {"n": f"{n_lo}..{n_hi}", "m": f"{m_lo}..{m_hi}"}, results


def _verify_cycle(args):
    n_lo, n_hi = _check_n_range(args.n)
    m_lo, m_hi = _check_m_range(args.m, n_hi)
    results = []
    for n in range(n_lo, n_hi + 1):
        if n % 2 == 0:
            continue
        G = graphs.cycle(n)
        for m in range(m_lo, m_hi + 1):
            got = sdefect.sdefect_cycle(G, m).value
            expected = sdefect.sdefect_brute(G, m).value
            results.append({"n": n, "m": m, "recursion": got, "brute": expected, "pass": got == expected})
    return {"n": f"{n_lo}..{n_hi}", "m": f"{m_lo}..{m_hi}"}, results


def _verify_triangle_tail(args):
    n_lo, n_hi = _check_n_range(args.n, extra=3)  # T_n has n + 3 vertices
    results = []
    for n in range(n_lo, n_hi + 1):
        rep = sdefect.verify_triangle_tail(n)
        results.append({"n": n, "left": rep.left, "right": rep.right_by_convention,
                        "convention": rep.convention or "none", "pass": rep.holds})
    return {"n": f"{n_lo}..{n_hi}"}, results


def _verify_decomposition(args):
    G = _load_graph(args)
    m_lo, m_hi = _check_m_range(args.m, G.n)
    if m_lo < 3:
        raise CLIInputError(
            f"verify decomposition: no instance in range at m = {m_lo}; "
            "the identity J^(m) = J^m + J^(2) J^(m-2) needs m >= 3"
        )
    results = []
    for m in range(m_lo, m_hi + 1):
        lhs = covers.symbolic_power(G, m)
        rhs = covers.ordinary_power(G, m).add(
            covers.symbolic_power(G, 2).multiply(covers.symbolic_power(G, m - 2))
        )
        results.append({"m": m, "pass": lhs == rhs})
    return _graph_desc(args, G), results


def _verify_classification(args):
    G = _load_graph(args)
    rows = [{"cover": r["cover"], "kind": r["kind"], "pass": r["agrees"]} for r in _classification_rows(G)]
    return _graph_desc(args, G), rows


def _cmd_verify(args):
    input_desc, results = args.sweep(args)
    if not results:
        raise CLIInputError(f"verify {args.identity}: no instance in range")
    ok = all(row["pass"] for row in results)
    warnings = [] if ok else ["verification failed for at least one instance"]
    return {"identity": args.identity, **input_desc}, results, warnings, EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument wiring: each command declares exactly the options it reads, so
# argparse refuses any other ("unrecognized arguments") and a missing graph


def _add_command(sub, name, func, summary, graph=True, **ranges):
    """Sub-command `name`: --format, --max-gens, a required --family or
    --graph if `graph`, and an option per range, of the given default
    (None: required)."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")
    p.add_argument("--max-gens", type=int, default=monomials._DEFAULT_GENERATOR_CAP,
                   help="generator cap: the most rows one step may count (default: %(default)s)")
    if graph:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--family", help='family shorthand, e.g. "K5", "C7", "P4", "T3"')
        src.add_argument("--graph", help="path to a graph JSON file")
    for opt, default in ranges.items():
        text = {"n": 'vertex-count range, e.g. "3..5"', "m": 'm value or range, e.g. "3" or "1..6"'}[opt]
        text += "" if default is None else " (default: %(default)s)"
        p.add_argument(f"--{opt}", type=_range, required=default is None, default=default,
                       help=text)
    p.set_defaults(func=func)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="symdef", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    _add_command(sub, "cover-ideal", _cmd_cover_ideal, "minimal generators, mu, alpha")
    p = _add_command(sub, "sdefect", _cmd_sdefect, "symbolic defect over an m-range", m=None)
    p.add_argument("--method", choices=(*_METHODS, "all"), default="brute")
    _add_command(sub, "waldschmidt", _cmd_waldschmidt, "Waldschmidt constant and resurgence bound")
    _add_command(sub, "fit", _cmd_fit, "quasi-polynomial fit of the sdefect sequence", m=None)
    _add_command(sub, "classify2", _cmd_classify2, "classify all minimal 2-covers")

    verify = sub.add_parser("verify", help="verify a known identity over a sweep")
    identities = verify.add_subparsers(dest="identity", required=True)
    for name, sweep, summary, graph, ranges in (
        ("kn", _verify_kn, "the K_n closed form", False, {"n": "3..5", "m": "2..8"}),
        ("cycle", _verify_cycle, "the odd-cycle recursion", False, {"n": "5..7", "m": "2..5"}),
        ("triangle-tail", _verify_triangle_tail, "the triangle-tail recursion", False, {"n": "5..7"}),
        ("decomposition", _verify_decomposition, "J^(m) = J^m + J^(2) J^(m-2)", True, {"m": "3..5"}),
        ("classification", _verify_classification, "the 2-cover classification", True, {}),
    ):
        _add_command(identities, name, _cmd_verify, summary, graph, **ranges).set_defaults(sweep=sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        started = time.monotonic()
        with monomials.generator_cap(args.max_gens):
            input_desc, results, warnings, code = args.func(args)
        _emit(args, input_desc, results, warnings, started)
        return code
    except (monomials.GeneratorCapExceeded, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CLIInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
