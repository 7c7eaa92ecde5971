"""Command-line behavior: output formats, exit codes, resource caps."""
import dataclasses
import json
import re
from fractions import Fraction

import pytest

from symdef import monomials, sdefect
from symdef.cli import EXIT_INPUT, EXIT_MISMATCH, EXIT_OK, EXIT_RESOURCE, main
from symdef.graphs import MAX_VERTICES, Graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_cover_ideal_k3(capsys):
    code, report, _ = run_json(capsys, "cover-ideal", "--family", "K3")
    assert code == EXIT_OK
    row = report["results"][0]
    assert row["generators"] == ["x1*x2", "x1*x3", "x2*x3"]
    assert row["mu"] == 3 and row["alpha"] == 2


def test_report_schema(capsys):
    code, report, _ = run_json(capsys, "cover-ideal", "--family", "C4")
    assert code == EXIT_OK
    assert set(report) == {"command", "input", "results", "warnings", "timing_ms"}
    assert report["command"] == "cover-ideal"
    assert report["input"]["n"] == 4


def test_output_deterministic_modulo_timing(capsys):
    _, first, _ = run_json(capsys, "sdefect", "--family", "K4", "--m", "1..4")
    _, second, _ = run_json(capsys, "sdefect", "--family", "K4", "--m", "1..4")
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_sdefect_all_methods_agree(capsys):
    code, report, _ = run_json(
        capsys, "sdefect", "--family", "K3", "--m", "1..6", "--method", "all"
    )
    assert code == EXIT_OK
    by_m = {}
    for row in report["results"]:
        by_m.setdefault(row["m"], set()).add(row["sdefect"])
    assert by_m == {m: {v} for m, v in zip(range(1, 7), [0, 1, 3, 4, 6, 7])}
    assert not report["warnings"]


def test_sdefect_all_methods_agree_past_twelve(capsys):
    # no bound on m but the generator cap: all three methods at m = 13, 14
    code, report, _ = run_json(
        capsys, "sdefect", "--family", "C5", "--m", "13..14", "--method", "all"
    )
    assert code == EXIT_OK
    assert len(report["results"]) == 6 and not report["warnings"]
    assert {(r["m"], r["sdefect"]) for r in report["results"]} == {(13, 180), (14, 211)}


def test_sdefect_tsv(capsys):
    code, out, _ = run(
        capsys, "sdefect", "--family", "K3", "--m", "2", "--format", "tsv"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split("\t")[:3] == ["m", "method", "sdefect"]
    assert lines[1].split("\t")[:3] == ["2", "brute", "1"]


def test_waldschmidt_c5(capsys):
    code, report, _ = run_json(capsys, "waldschmidt", "--family", "C5")
    assert code == EXIT_OK
    row = report["results"][0]
    assert row["waldschmidt"] == "5/2"
    assert row["resurgence_lower_bound"] == "6/5"


def test_waldschmidt_c5_pretty_and_tsv(capsys):
    # exact fractions print as strings in every format
    code, out, err = run(capsys, "waldschmidt", "--family", "C5")
    assert (code, err) == (EXIT_OK, "")
    assert out == (
        '# waldschmidt {"source": "C5", "n": 5, "edges": [[1, 2], [1, 5], [2, 3], [3, 4], [4, 5]]}\n'
        "  alpha_1=3  alpha_2=5  waldschmidt=5/2  minimizing_index=2  resurgence_lower_bound=6/5\n"
    )
    code, out, err = run(capsys, "waldschmidt", "--family", "C5", "--format", "tsv")
    assert (code, err) == (EXIT_OK, "")
    assert out == (
        "alpha_1\talpha_2\twaldschmidt\tminimizing_index\tresurgence_lower_bound\n"
        "3\t5\t5/2\t2\t6/5\n"
    )


class TestMethodsDisagree:
    """`sdefect --method all` on the tripod-triangle graph: the recursion's
    exhaustive check passes at m = 1, 2 and fails from m = 3, where its
    formula, reported unchecked, overcounts the brute count."""

    ROWS = [
        (1, "brute", 0, 0),
        (1, "recursion(exhaustive-check)", 0, ""),
        (2, "brute", 1, 1),
        (2, "recursion(exhaustive-check)", 1, ""),
        (3, "brute", 3, 3),
        (3, "recursion-unchecked", 4, ""),
        (4, "brute", 7, 7),
        (4, "recursion-unchecked", 11, ""),
    ]
    UNCHECKED = (
        "hypothesis failed: Indecomposability Property: F^1 * x1*x2*x3 lies in the"
        " ordinary power of exponent 3; formula value reported unchecked"
    )
    WARNINGS = [
        f"m=3: {UNCHECKED}",
        "m=3: methods disagree: {'brute': 3, 'recursion-unchecked': 4}",
        f"m=4: {UNCHECKED}",
        "m=4: methods disagree: {'brute': 7, 'recursion-unchecked': 11}",
    ]

    @pytest.fixture
    def path(self, tmp_path, tripod_triangle):
        f = tmp_path / "tripod.json"
        f.write_text(tripod_triangle.to_json())
        return str(f)

    def _run(self, capsys, path, fmt):
        argv = ["sdefect", "--graph", path, "--m", "1..4", "--method", "all", "--format", fmt]
        return run(capsys, *argv)

    def test_json(self, capsys, path):
        code, out, err = self._run(capsys, path, "json")
        report = json.loads(out)
        assert (code, err) == (EXIT_MISMATCH, "")
        keys = ("m", "method", "sdefect", "witnesses")
        assert report["results"] == [dict(zip(keys, row)) for row in self.ROWS]
        assert report["warnings"] == self.WARNINGS

    def test_tsv(self, capsys, path):
        code, out, err = self._run(capsys, path, "tsv")
        assert code == EXIT_MISMATCH
        lines = ["m\tmethod\tsdefect\twitnesses"]
        lines += ["\t".join(map(str, row)) for row in self.ROWS]
        assert out == "".join(line + "\n" for line in lines)
        assert err == "".join(f"# warning: {w}\n" for w in self.WARNINGS)

    def test_pretty(self, capsys, path):
        code, out, err = self._run(capsys, path, "pretty")
        assert (code, err) == (EXIT_MISMATCH, "")
        edges = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 5], [3, 6]]
        lines = ["# sdefect " + json.dumps({"source": path, "n": 6, "edges": edges})]
        lines += [f"  m={m}  method={meth}  sdefect={v}  witnesses={w}" for m, meth, v, w in self.ROWS]
        lines += [f"warning: {w}" for w in self.WARNINGS]
        assert out == "".join(line + "\n" for line in lines)


def test_fit_c5(capsys):
    code, report, _ = run_json(capsys, "fit", "--family", "C5", "--m", "1..10")
    assert code == EXIT_OK
    row = report["results"][0]
    assert row["period"] == 2 and row["degree"] == 2
    assert row["onset"] <= 4


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?\*?(m(?:\^(\d+))?)?")


def _eval_piece(text, m):
    """Evaluate one printed polynomial, such as "5/4*m^2 - 5/2*m + 1", at m;
    each term is one sign and one unsigned coefficient and power of m."""
    total = Fraction(0)
    for term in text.replace("- ", "-").replace("+ ", "+").split():
        match = _TERM.fullmatch(term)
        assert match and (match[2] or match[3]), f"malformed term {term!r} in {text!r}"
        sign, coeff, mono, power = match.groups()
        value = Fraction(coeff or 1) * (m ** int(power or 1) if mono else 1)
        total += -value if sign == "-" else value
    return total


@pytest.mark.parametrize("family", ["C5", "C9"])
def test_fit_pieces_parse_back_to_the_sequence(capsys, family):
    # C9's constant terms are negative (-2 and -33/16)
    code, report, _ = run_json(
        capsys, "fit", "--family", family, "--m", "1..12", "--period", "2"
    )
    assert code == EXIT_OK
    row = report["results"][0]
    pieces = {}
    for piece in row["pieces"]:
        head, poly = piece.split(": ")
        pieces[int(head.split()[2])] = poly
    assert sorted(pieces) == [0, 1]
    onset = row["onset"] or 1
    for m, value in enumerate(row["sequence"], start=1):
        if m >= onset:
            assert _eval_piece(pieces[m % 2], m) == value, (m, pieces[m % 2])


def test_classify2(capsys):
    code, report, _ = run_json(capsys, "classify2", "--family", "C5")
    assert code == EXIT_OK
    kinds = {row["kind"] for row in report["results"]}
    assert "all_ones" in kinds
    assert all(row["agrees"] for row in report["results"])


def test_verify_complete_graphs(capsys):
    code, report, _ = run_json(capsys, "verify", "kn", "--n", "3..4", "--m", "2..5")
    assert code == EXIT_OK
    assert all(row["pass"] for row in report["results"])


def test_verify_triangle_tail(capsys):
    code, report, _ = run_json(capsys, "verify", "triangle-tail", "--n", "5..5")
    assert code == EXIT_OK
    assert report["results"][0]["convention"] == "edges"


def test_verify_decomposition(capsys):
    code, report, _ = run_json(
        capsys, "verify", "decomposition", "--family", "C5", "--m", "3..5"
    )
    assert code == EXIT_OK
    assert all(row["pass"] for row in report["results"])


def test_verify_decomposition_default_range(capsys):
    code, report, _ = run_json(capsys, "verify", "decomposition", "--family", "C5")
    assert code == EXIT_OK
    assert report["results"] == [{"m": m, "pass": True} for m in (3, 4, 5)]


def test_verify_classification_matches_classify2(capsys):
    code, report, _ = run_json(capsys, "verify", "classification", "--family", "T3")
    assert code == EXIT_OK
    assert report["results"] and all(row["pass"] for row in report["results"])
    _, classified, _ = run_json(capsys, "classify2", "--family", "T3")
    kinds = [row["kind"] for row in report["results"]]
    assert kinds == [row["kind"] for row in classified["results"]]


def test_verify_cycle_mismatch_exits_2(capsys, monkeypatch):
    # a recursion that disagrees with brute force by one must be reported
    real = sdefect.sdefect_cycle

    def off_by_one(n, m):
        rep = real(n, m)
        return dataclasses.replace(rep, value=rep.value + 1)

    monkeypatch.setattr(sdefect, "sdefect_cycle", off_by_one)
    code, report, _ = run_json(capsys, "verify", "cycle", "--n", "9..9", "--m", "5..5")
    assert code == EXIT_MISMATCH
    row = report["results"][0]
    assert not row["pass"]
    assert row["recursion"] == 103 and row["brute"] == 102


def test_verify_cycle_c9_agrees(capsys):
    code, report, _ = run_json(capsys, "verify", "cycle", "--n", "9..9", "--m", "5..6")
    assert code == EXIT_OK
    rows = [(r["recursion"], r["brute"], r["pass"]) for r in report["results"]]
    assert rows == [(102, 102, True), (226, 226, True)]


def test_cycle_method_reads_the_structure_not_the_labels(capsys, tmp_path):
    # C7 under the labels 1 4 2 6 3 7 5 around the cycle
    order = [0, 3, 1, 5, 2, 6, 4]
    relabeled = tmp_path / "c7.json"
    relabeled.write_text(Graph.from_edges(7, zip(order, order[1:] + order[:1])).to_json())
    for method in ("cycle", "all"):
        argv = ["sdefect", "--graph", str(relabeled), "--m", "4", "--method", method]
        code, report, _ = run_json(capsys, *argv)
        rows = {r["method"]: r["sdefect"] for r in report["results"]}
        assert code == EXIT_OK and rows["cycle-recursion"] == 22
    assert rows["brute"] == 22
    # three disjoint triangles: odd n and every degree 2, but not connected
    triangles = tmp_path / "3c3.json"
    edges = [(a + i, a + (i + 1) % 3) for a in (0, 3, 6) for i in range(3)]
    triangles.write_text(Graph.from_edges(9, edges).to_json())
    argv = ["sdefect", "--graph", str(triangles), "--m", "2", "--method"]
    code, out, err = run(capsys, *argv, "cycle")
    assert (code, out) == (EXIT_INPUT, "") and "connected" in err
    code, report, _ = run_json(capsys, *argv, "all")
    assert code == EXIT_OK and "cycle-recursion" not in {r["method"] for r in report["results"]}


class TestTrianglePlusIsolatedVertex:
    """The one extra generator of J^(2) is x1x2x3, not x1x2x3x4, so the
    recursion, which counts from x1x2x3x4, is refused at every m."""

    SKIPPED = f"hypothesis failed: {sdefect.UNIQUE_EXTRA_2COVER}"

    @pytest.fixture
    def path(self, tmp_path, triangle_plus_isolated):
        f = tmp_path / "triangle_plus_isolated.json"
        f.write_text(triangle_plus_isolated.to_json())
        return str(f)

    def test_recursion_is_refused(self, capsys, path):
        code, out, err = run(capsys, "sdefect", "--graph", path, "--m", "4", "--method", "recursion")
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {self.SKIPPED}\n")

    def test_all_reports_brute_rows_only(self, capsys, path):
        code, report, err = run_json(capsys, "sdefect", "--graph", path, "--m", "2..5", "--method", "all")
        assert (code, err) == (EXIT_OK, "")
        assert report["results"] == [
            {"m": m, "method": "brute", "sdefect": v, "witnesses": v}
            for m, v in zip(range(2, 6), (1, 3, 4, 6))
        ]
        assert report["warnings"] == [f"m={m}: recursion skipped: {self.SKIPPED}" for m in range(2, 6)]

    def test_waldschmidt_skips_the_resurgence_bound(self, capsys, path):
        code, report, err = run_json(capsys, "waldschmidt", "--graph", path)
        assert (code, err) == (EXIT_OK, "")
        row = report["results"][0]
        assert (row["waldschmidt"], row["resurgence_lower_bound"]) == ("3/2", None)
        assert report["warnings"] == [f"resurgence bound skipped: {self.SKIPPED}"]


def test_graph_from_json_file(capsys, tmp_path):
    f = tmp_path / "g.json"
    f.write_text(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]).to_json())
    code, report, _ = run_json(capsys, "cover-ideal", "--graph", str(f))
    assert code == EXIT_OK
    assert report["results"][0]["mu"] == 3


class TestInputErrors:
    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "cover-ideal", "--family", "Q9")
        assert code == EXIT_INPUT and "Q9" in err

    def test_missing_graph_source(self, capsys):
        code, _, err = run(capsys, "cover-ideal")
        assert code == EXIT_INPUT and "graph source" in err

    def test_unreadable_graph_file(self, capsys):
        code, _, err = run(capsys, "cover-ideal", "--graph", "/no/such/file.json")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"n": 3, "edges": 5}',
            '{"n": 3, "edges": [[1, null]]}',
            '{"n": 2.7, "edges": []}',
            '{"n": true, "edges": []}',
            '{"n": "3", "edges": []}',
            '{"n": 3, "edges": [[1.9, 2]]}',
            '{"n": 3, "edges": [[true, 2]]}',
            '{"n": 0, "edges": []}',
            "[" * 200_000 + "]" * 200_000,
        ],
        ids=[
            "list", "edges-int", "null-vertex", "n-float", "n-bool", "n-string",
            "float-vertex", "bool-vertex", "n-zero", "deep-nesting",
        ],
    )
    def test_malformed_graph_json(self, capsys, tmp_path, text):
        f = tmp_path / "g.json"
        f.write_text(text)
        for command in ("cover-ideal", "classify2"):
            code, _, err = run(capsys, command, "--graph", str(f))
            assert code == EXIT_INPUT
            assert err.startswith(f"error: cannot read graph from {f}")

    @pytest.mark.parametrize("n", [MAX_VERTICES + 1, 300_000])
    def test_graph_file_past_vertex_bound(self, capsys, tmp_path, n):
        f = tmp_path / "g.json"
        f.write_text(json.dumps({"n": n, "edges": [[1, 2]]}))
        code, out, err = run(capsys, "cover-ideal", "--graph", str(f))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: {n} vertices: graphs are limited to {MAX_VERTICES}\n"

    def test_family_past_vertex_bound(self, capsys):
        code, out, err = run(capsys, "cover-ideal", "--family", f"K{MAX_VERTICES + 1}")
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith(f"error: {MAX_VERTICES + 1} vertices")

    @pytest.mark.parametrize(
        "argv",
        [
            ["kn", "--n", "3..3", "--m", "2..3", "--family", "C5"],
            ["cycle", "--n", "5..5", "--m", "2..3", "--family", "K4"],
            ["triangle-tail", "--n", "5..5", "--graph", "g.json"],
        ],
        ids=["kn", "cycle", "triangle-tail"],
    )
    def test_verify_refuses_a_graph_it_does_not_read(self, capsys, argv):
        # these identities sweep their own graphs over --n
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith(f"error: verify {argv[0]} ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["triangle-tail", "--n", "5..5", "--m", "2..3"],
            ["decomposition", "--family", "C5", "--n", "9..9", "--m", "3..3"],
            ["classification", "--family", "C5", "--n", "9..9", "--m", "7"],
        ],
        ids=["triangle-tail", "decomposition", "classification"],
    )
    def test_verify_refuses_a_range_it_does_not_read(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith(f"error: verify {argv[0]} ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["waldschmidt", "--family", "C9", "--m", "3"],
            ["cover-ideal", "--family", "C5", "--m", "100"],
            ["classify2", "--family", "C5", "--m", "3"],
        ],
        ids=["waldschmidt", "cover-ideal", "classify2"],
    )
    def test_no_option_is_abbreviated(self, capsys, argv):
        # these commands read no --m, and it is not taken for --max-gens
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert "unrecognized arguments: --m" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sdefect", "--family", "C5", "--m", "0..3"], "m range must start at 1 or above"),
            (["fit", "--family", "C5", "--m", "1..3"], "no quasi-polynomial fit"),
            (["fit", "--family", "C5", "--m", "1..8", "--period", "0"], "period must be positive"),
            (["waldschmidt", "--family", "P1"], "at least one edge"),
        ],
        ids=["sdefect-m-zero", "fit-too-short", "fit-period-zero", "waldschmidt-edgeless"],
    )
    def test_refusal_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: ") and message in err

    def test_empty_m_range(self, capsys):
        code, _, _ = run(capsys, "sdefect", "--family", "K3", "--m", "5..2")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("n", ["1..3", "2..2"])
    def test_kn_closed_form_needs_three_vertices(self, capsys, n):
        # J(K2) = (x1, x2) has sdefect 0, off the closed form
        code, out, err = run(capsys, "verify", "kn", "--n", n, "--m", "2..3")
        assert (code, out) == (EXIT_INPUT, "")
        assert "n >= 3" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cycle", "--n", "6..6"],
            ["cycle", "--n", "4..4"],
            ["decomposition", "--family", "C5", "--m", "1..2"],
        ],
        ids=["cycle-even", "cycle-four", "decomposition-below-3"],
    )
    def test_empty_verify_sweep(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert "no instance in range" in err

    @pytest.mark.parametrize("m", ["2..3", "1..5"])
    def test_decomposition_refuses_m_below_three(self, capsys, m):
        # the identity starts at m = 3; a range that reaches below is refused, not clipped
        code, out, err = run(capsys, "verify", "decomposition", "--family", "C5", "--m", m)
        assert (code, out) == (EXIT_INPUT, "")
        assert "m >= 3" in err

    def test_decomposition_m_beyond_cap(self, capsys):
        # past the m whose rows int64 holds on 5 vertices, refused before any m is computed
        top = (2**63 - 1) // 5
        argv = ["verify", "decomposition", "--family", "C5", "--m", f"3..{top + 1}"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert f"needs 0 <= m <= {top}" in err

    @pytest.mark.parametrize(
        "argv",
        [["kn", "--n", "3..3"], ["cycle", "--n", "5..5"], ["kn", "--n", "3..4"]],
        ids=["kn", "cycle", "kn-top-n"],
    )
    def test_verify_m_beyond_cap(self, capsys, argv):
        # refused before any m is computed, as sdefect and fit refuse it: the
        # bound is that of the largest n in the range
        n = int(argv[-1].split("..")[1])
        top = (2**63 - 1) // n
        code, out, err = run(capsys, "verify", *argv, "--m", f"2..{top + 1}")
        assert (code, out) == (EXIT_INPUT, "")
        assert f"needs 0 <= m <= {top}" in err

    def test_m_beyond_cap(self, capsys):
        for command in ("sdefect", "fit"):
            code, out, _ = run(capsys, command, "--family", "K3", "--m", "1..3074457345618258603")
            assert (code, out) == (EXIT_INPUT, "")

    def test_cycle_method_needs_odd_cycle(self, capsys):
        code, _, _ = run(
            capsys, "sdefect", "--family", "K4", "--m", "2", "--method", "cycle"
        )
        assert code == EXIT_INPUT

    def test_recursion_method_rejects_bipartite(self, capsys):
        code, _, _ = run(
            capsys, "sdefect", "--family", "C4", "--m", "3", "--method", "recursion"
        )
        assert code == EXIT_INPUT


class TestResourceCap:
    # fresh graphs so no earlier test has warmed the per-graph caches
    FRESH = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3)]
    )

    def _write(self, tmp_path, graph):
        f = tmp_path / "g.json"
        f.write_text(graph.to_json())
        return str(f)

    def test_flag_trips_cap(self, capsys, tmp_path):
        path = self._write(tmp_path, self.FRESH)
        for cap in ("5", "0"):
            code, _, err = run(capsys, "cover-ideal", "--graph", path, "--max-gens", cap)
            assert code == EXIT_RESOURCE and "cap" in err

    def test_negative_flag_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "cover-ideal", "--family", "C5", "--max-gens", "-1")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: generator cap must be >= 0, got -1\n"

    def test_flag_applies_to_cached_results(self, capsys):
        capped = ("sdefect", "--family", "C7", "--m", "3", "--max-gens", "0")
        assert run(capsys, *capped)[0] == EXIT_RESOURCE
        # an uncapped run fills the caches with C7's results; the capped
        # run must not take them from there
        assert run(capsys, "sdefect", "--family", "C7", "--m", "3")[0] == EXIT_OK
        assert run(capsys, *capped)[0] == EXIT_RESOURCE

    def test_message_counts_rows_at_every_site(self, capsys):
        # here the count is the rows the cover-sum chain of K2 already
        # holds, the levels D_0..D_631, not the candidates of one step
        code, out, err = run(capsys, "sdefect", "--family", "K2", "--m", "150000")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == "error: a step counts 200028 rows, past the generator cap of 200000\n"

    def test_flag_does_not_outlive_the_call(self, capsys):
        run(capsys, "cover-ideal", "--family", "C5", "--max-gens", "0")
        # an uncached product of 4 candidates would trip a leftover cap of 0
        I = monomials.MonomialIdeal(2, [(1, 0), (0, 1)])
        assert I.power(2).mu() == 3
