"""Self-tests of the benchmark's oracles, and a tiny-size smoke run of
each workload.  Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

These are the benchmark's own tests, apart from the program's suite
under ``tests/``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import ctext, planted, provegen  # noqa: E402

LIBRARY_PY = ROOT / "src" / "repro" / "core" / "qualifiers" / "library.py"


# ------------------------------------------------ closed-form soundness


@pytest.mark.parametrize("shape", sorted(provegen.SHAPES))
@pytest.mark.parametrize("op", [">", "<", ">=", "<="])
def test_closed_form_matches_brute_force(shape, op):
    for bound in range(-3, 4):
        for offset in range(-2, 3):
            clause = provegen.LinearClause(shape, bound + offset)
            assert provegen.clause_sound(clause, op, bound) == provegen.clause_sound_brute(
                clause, op, bound, box=20
            ), (shape, op, bound, offset)


def test_closed_form_examples_from_the_rules():
    # C, where C > a under value(E) > b is sound iff a >= b.
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert provegen.clause_sound(provegen.LinearClause("const_gt", a), ">", b) == (a >= b)
    # E1 + E2 over the qualifier itself is sound iff b >= -1.
    for b in range(-3, 4):
        assert provegen.clause_sound(provegen.LinearClause("add_self"), ">", b) == (b >= -1)


def test_generated_prove_file_texts():
    texts = planted.library_texts(LIBRARY_PY.read_text())
    assert {"pos", "neg", "nonneg", "nonzero", "nonnull", "unique", "unaliased"} <= set(texts)
    for variant in provegen.REF_VARIANTS:
        pf = provegen.generate_file(random.Random(3), texts, variant, "pos", "t")
        assert pf.text.count("qualifier ") == 2 + len(pf.linear)
        assert [len(q.clauses) for q in pf.linear] == [2 + k % 3 for k in range(len(pf.linear))]
        ref = pf.library[0]
        assert ("disallow" in ref.text) == ref.sound
    diff = provegen.library_qualifier(texts, "pos-difference", "t")
    assert "E1 - E2, where pos_t(E1) && pos_t(E2)" in diff.text
    assert diff.failing_rule == "case 4:"


# ------------------------------------------------------ planted units


def _expected_file() -> Counter:
    want: Counter = Counter()
    for line in (HERE / "tiny_unit.expected").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            func, qual, count = line.split()
            want[(func, qual)] = int(count)
    return want


def test_planted_derivation_matches_hand_written_file():
    rules = planted.load_rules(LIBRARY_PY.read_text())
    got = planted.expected_diagnostics((HERE / "tiny_unit.c").read_text(), rules)
    assert got == _expected_file()


def test_rules_read_from_library_text():
    rules = planted.load_rules(LIBRARY_PY.read_text())
    assert {"pos", "neg", "nonneg", "nonzero", "nonnull"} <= set(rules)
    assert [c.pattern.op for c in rules["nonzero"].restricts] == ["/"]
    assert [c.pattern.op for c in rules["nonnull"].restricts] == ["deref"]


def test_generated_unit_round_trips_through_the_derivation():
    rules = planted.load_rules(LIBRARY_PY.read_text())
    text = planted.generate_unit(random.Random(7), "g", 5)
    assert text.startswith("/* planted unit")
    assert len(ctext.function_bodies(text)) == 5
    assert sum(planted.expected_diagnostics(text, rules).values()) > 0


# ------------------------------------------------------------ C text


def test_deref_counting():
    source = """
struct node { int v; struct node* next; };
char buf[8];
int f(struct node* n, int* p, char** argv) {
  int x = *p * 2;
  struct node* m = &n->next[1];
  x = x + n->v + n->next->v + p[3] + (*argv)[0];
  x = sizeof(struct node) * x;
  return x + (int)*p;
}
"""
    # *p, n->next (the [1] only computes an address), n->v, n->next,
    # ->v, p[3], *argv, [0], *p
    assert ctext.count_derefs(source) == 9


def test_untainted_call_counting():
    source = """
int printf(char* __attribute__((untainted)) fmt, ...);
int fprintf(int stream, char* __attribute__((untainted)) fmt, ...);
int puts(char* s);
void log2(char* a, char* b) {
  printf(a);
  fprintf(2, "x %s", b);
  puts(printf("y") ? a : b);
}
"""
    # three calls of printf/fprintf; the prototypes and puts do not count
    assert ctext.untainted_call_sites(source) == 3
    with pytest.raises(ValueError):
        ctext.untainted_call_sites("void f(char* __attribute__((untainted)) s) { }\n")


def test_stream_lines_are_told_apart_whatever_the_spacing():
    from perfbench.run import is_stream_line

    for separators in ((",", ":"), (", ", ": ")):
        for rid, stream in ((7, True), (17, False)):
            line = json.dumps({"id": 7, "stream": "unit", "unit": {}}, separators=separators).encode()
            assert is_stream_line(line, rid) == stream
        done = json.dumps({"id": 7, "done": True, "report": {"stream": 1}}, separators=separators).encode()
        assert not is_stream_line(done, 7)


def test_function_bodies_and_changes():
    source = "int f(int a) {\n  return a;\n}\n\nint g(int b) {\n  if (b) { b = 1; }\n  return b;\n}\n"
    bodies = ctext.function_bodies(source)
    assert sorted(bodies) == ["f", "g"]
    assert bodies["g"].endswith("return b;\n}")
    edited = ctext.function_bodies(source.replace("return a;", "return a + 1;"))
    assert ctext.changed_functions(bodies, edited) == 1


# ------------------------------------------------------------ smoke runs


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace",
    # One traced run replays every workload, so it covers every layer.
    [("check-cold", "0"), ("prove-cold", "0"), ("serve-edit", "0"), ("check-cold", "1")],
)
def test_smoke_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--smoke"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in bench[kind]}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "check-cold", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
