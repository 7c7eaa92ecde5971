"""The console command end to end: each case runs `python -m symdef.cli` in
its own process and checks the exit code, that no traceback escapes, and
the value the case expects.  A fresh process keeps the large caches of the
frontier cases out of the test process."""
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GRAPHS = {
    "two_triangles.json": '{"n": 6, "edges": [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]]}',
}

# (id, argv, exit code, expected): a dict is matched against the first row
# of the JSON report, a string is looked for in the output.  A `verify`
# command exits 0 only when it has rows and every row passes.
CASES = [
    # sdefect_brute at the frontier: J^(m) past the default cap
    ("frontier-C13-m7", "sdefect --family C13 --m 7 --max-gens 2000000", 0, {"sdefect": 2340}),
    ("frontier-T10-m8", "sdefect --family T10 --m 8 --max-gens 2000000", 0, {"sdefect": 52213}),
    ("frontier-C15-m6", "sdefect --family C15 --m 6 --max-gens 10000000", 0, {"sdefect": 1666}),
    ("frontier-C17-m5", "sdefect --family C17 --m 5 --max-gens 10000000", 0, {"sdefect": 714}),
    ("frontier-T12-m8", "sdefect --family T12 --m 8 --max-gens 10000000", 0, {"sdefect": 297124}),
    # the cover-sum chain of sdefect_cycle past enumeration (J^(12) of C17
    # has 27.6M generators); no second route checks these two values yet
    ("cycle-C17-m12", "sdefect --family C17 --m 12 --method cycle --max-gens 1000000", 0,
     {"sdefect": 466668}),
    ("cycle-C19-m12", "sdefect --family C19 --m 12 --method cycle --max-gens 10000000", 0,
     {"sdefect": 1222252}),
    # the range over which README says sdefect_cycle equals sdefect_brute
    ("cycle-range-C5", "verify cycle --n 5..5 --m 2..40", 0, None),
    ("cycle-range-C7", "verify cycle --n 7..7 --m 2..24", 0, None),
    ("cycle-range-C9", "verify cycle --n 9..9 --m 2..7", 0, None),
    ("cycle-range-C11", "verify cycle --n 11..11 --m 2..6", 0, None),
    ("cycle-range-C13", "verify cycle --n 13..13 --m 2..5", 0, None),
    ("cycle-range-C15", "verify cycle --n 15..15 --m 2..3", 0, None),
    # large degree layers of the minimalization kernel
    ("decomposition-C9", "verify decomposition --family C9 --m 3..7", 0, None),
    ("decomposition-T8", "verify decomposition --family T8 --m 3..6", 0, None),
    ("triangle-tail", "verify triangle-tail --n 5..12", 0, None),
    ("classification-C9", "verify classification --family C9", 0, None),
    ("recursion-K6", "sdefect --family K6 --m 1..12 --method recursion", 0, None),
    # m past 12: only the generator cap bounds m
    ("fit-C5-m40", "fit --family C5 --m 1..40", 0, {"degree": 2, "onset": 1}),
    ("max-gens-help", "sdefect --help", 0, "(default: 200000)"),
    # a huge m ends at the generator cap, on the partial rows of J^(m), in seconds
    ("kn-huge-m", "verify kn --n 3..3 --m 2..1000000000", 3, None),
    # the recursion's 2-cover hypothesis is read from the graph, not from J^(2)
    ("recursion-T22", "sdefect --family T22 --m 3 --method recursion", 4, None),
    # not odd cycles: an even cycle, and two disjoint triangles (every degree 2)
    ("cycle-method-C4", "sdefect --family C4 --m 2 --method cycle", 4, None),
    ("cycle-method-2C3", "sdefect --graph two_triangles.json --m 2 --method cycle", 4, None),
    # an --n whose largest graph is past graphs.MAX_VERTICES, refused before any n is computed
    ("kn-n-past-bound", "verify kn --n 3..200 --m 2..3", 4, None),
    ("cycle-n-past-bound", "verify cycle --n 5..201 --m 2..3", 4, None),
    ("triangle-tail-n-past-bound", "verify triangle-tail --n 5..200", 4, None),
    # chains of small levels: each level carries the rows held, not a re-sum of the chain
    ("chain-K1-m50000", "sdefect --family K1 --m 50000", 0, {"sdefect": 0}),
    ("chain-C3-m100000", "sdefect --family C3 --m 100000 --method cycle", 3, None),
]


def symdef(cwd, argv, code, **kwargs):
    """Run the console command in `cwd`; check its exit code and that a
    refusal is one `error:` line, not a traceback.  Returns stdout."""
    for name, text in GRAPHS.items():
        (cwd / name).write_text(text)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "symdef.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=20, **kwargs)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code in (3, 4):
        assert re.fullmatch(r"error: [^\n]+\n", proc.stderr), proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "argv, code, want", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_console(tmp_path, argv, code, want):
    argv = argv.split()
    if isinstance(want, dict):
        row = json.loads(symdef(tmp_path, [*argv, "--format", "json"], code))["results"][0]
        assert {key: row[key] for key in want} == want
    else:
        out = symdef(tmp_path, argv, code)
        assert want is None or want in out


def test_memory_exhaustion_exits_3(tmp_path):
    # past the count cap, J^(2) of C41 outgrows 1.5 GB of address space
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2)

    symdef(tmp_path, "waldschmidt --family C41 --max-gens 100000000".split(), 3, preexec_fn=limit)


def test_caches_are_bounded_and_no_module_keeps_global_state():
    for path in sorted((SRC / "symdef").glob("*.py")):
        text = path.read_text()
        assert "maxsize=None" not in text, path
        assert not re.search(r"^\s*global\s", text, re.M), path
