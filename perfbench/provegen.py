"""Seeded ``.qual`` files for the prove workload, and their verdicts.

Each file holds one renamed reference qualifier from the paper's
library (``unique`` or ``unaliased``, with or without its ``disallow``
clause), one renamed library value qualifier (or ``pos`` with an extra
``E1 - E2`` clause), and a few seeded linear-arithmetic value
qualifiers.  The expected verdicts come from two places, neither of
them the program:

* the paper: the library proves sound under renaming; ``unique`` or
  ``unaliased`` without ``disallow``, and ``pos`` with ``E1 - E2``, are
  not sound (section 4 and figures 5, 7);
* a closed-form integer rule for every linear clause
  (:func:`clause_sound`): each metavariable ranges over an integer
  half-line given by its ``where`` condition, the clause's result is
  evaluated in interval arithmetic, and the clause is sound iff that
  interval lies inside the invariant's half-line.  Every metavariable
  occurs once in a result, so the interval is exact.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

INF = math.inf
Interval = Tuple[float, float]

#: Domains of the library qualifiers a linear clause may name in its
#: ``where`` part (their invariants: > 0, < 0, >= 0).
LIBRARY_DOMAINS: Dict[str, Interval] = {
    "pos": (1, INF),
    "neg": (-INF, -1),
    "nonneg": (0, INF),
}

#: Clause shapes of the linear qualifiers: result pattern, the
#: metavariables' hypotheses (``self`` = the qualifier being defined).
SHAPES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "const_gt": ("C", ("C > a",)),
    "const_ge": ("C", ("C >= a",)),
    "const_lt": ("C", ("C < a",)),
    "add_self": ("E1 + E2", ("self", "self")),
    "add_pos": ("E1 + E2", ("self", "pos")),
    "add_neg": ("E1 + E2", ("self", "neg")),
    "sub_pos": ("E1 - E2", ("self", "pos")),
    "sub_neg": ("E1 - E2", ("self", "neg")),
    "id_pos": ("E1", ("pos",)),
    "id_neg": ("E1", ("neg",)),
    "id_nonneg": ("E1", ("nonneg",)),
    "negate_neg": ("-E1", ("neg",)),
    "negate_pos": ("-E1", ("pos",)),
    "negate_self": ("-E1", ("self",)),
}


def invariant_domain(op: str, bound: int) -> Interval:
    """Integers ``v`` with ``v op bound``."""
    return {
        ">": (bound + 1, INF),
        ">=": (bound, INF),
        "<": (-INF, bound - 1),
        "<=": (-INF, bound),
    }[op]


@dataclass(frozen=True)
class LinearClause:
    shape: str
    const: int = 0  # ``a`` of the constant shapes

    def hypotheses(self, inv: Interval) -> List[Interval]:
        _, hyps = SHAPES[self.shape]
        out: List[Interval] = []
        for hyp in hyps:
            if hyp == "self":
                out.append(inv)
            elif hyp in LIBRARY_DOMAINS:
                out.append(LIBRARY_DOMAINS[hyp])
            else:  # "C > a" and friends
                out.append(invariant_domain(hyp.split()[1], self.const))
        return out

    def text(self, name: str) -> str:
        pattern, hyps = SHAPES[self.shape]
        metas = re.findall(r"[A-Z]\w*", pattern)
        if self.shape.startswith("const"):
            op = hyps[0].split()[1]
            return f"decl int Const C:\n        C, where C {op} {self.const}"
        conds = " && ".join(
            f"{name if h == 'self' else h}({m})" for h, m in zip(hyps, metas)
        )
        return f"decl int Expr {', '.join(metas)}:\n        {pattern}, where {conds}"


def result_interval(clause: LinearClause, inv: Interval) -> Interval:
    """Interval of the clause's result over its hypotheses."""
    pattern, _ = SHAPES[clause.shape]
    doms = clause.hypotheses(inv)
    if pattern in ("C", "E1"):
        return doms[0]
    if pattern == "-E1":
        return (-doms[0][1], -doms[0][0])
    (lo1, hi1), (lo2, hi2) = doms
    if pattern == "E1 + E2":
        return (lo1 + lo2, hi1 + hi2)
    if pattern == "E1 - E2":
        return (lo1 - hi2, hi1 - lo2)
    raise ValueError(pattern)


def clause_sound(clause: LinearClause, op: str, bound: int) -> bool:
    """Closed form: the clause preserves ``value(E) op bound``."""
    inv = invariant_domain(op, bound)
    lo, hi = result_interval(clause, inv)
    if lo > hi:  # hypotheses unsatisfiable: vacuously sound
        return True
    return inv[0] <= lo and hi <= inv[1]


def clause_sound_brute(clause: LinearClause, op: str, bound: int, box: int) -> bool:
    """Brute force over the integer box ``[-box, box]``: no choice of
    metavariable values meets the hypotheses and breaks the invariant."""
    inv = invariant_domain(op, bound)
    pattern, _ = SHAPES[clause.shape]
    doms = clause.hypotheses(inv)
    values = range(-box, box + 1)

    def inside(v, dom):
        return dom[0] <= v <= dom[1]

    def result(xs):
        if pattern in ("C", "E1"):
            return xs[0]
        if pattern == "-E1":
            return -xs[0]
        return xs[0] + xs[1] if pattern == "E1 + E2" else xs[0] - xs[1]

    if len(doms) == 1:
        tuples = ((x,) for x in values)
    else:
        tuples = ((x, y) for x in values for y in values)
    for xs in tuples:
        if all(inside(x, d) for x, d in zip(xs, doms)) and not inside(result(xs), inv):
            return False
    return True


@dataclass(frozen=True)
class LinearQualifier:
    name: str
    op: str
    bound: int
    clauses: Tuple[LinearClause, ...]

    def text(self) -> str:
        body = "\n    | ".join(c.text(self.name) for c in self.clauses)
        return (
            f"value qualifier {self.name}(int Expr E)\n  case E of\n      {body}\n"
            f"  invariant value(E) {self.op} {self.bound}\n"
        )

    def expected(self) -> List[bool]:
        return [clause_sound(c, self.op, self.bound) for c in self.clauses]


def random_linear(rng: random.Random, name: str, cases: int) -> LinearQualifier:
    op = rng.choice((">", "<"))
    bound = rng.randint(-3, 3)
    clauses = []
    for shape in rng.sample(sorted(SHAPES), cases):
        clauses.append(LinearClause(shape, bound + rng.randint(-2, 2)))
    return LinearQualifier(name, op, bound, tuple(clauses))


# ------------------------------------------------- library qualifiers


def rename(text: str, old: str, new: str) -> str:
    return re.sub(rf"\b{old}\b", new, text)


def without_disallow(text: str) -> str:
    return re.sub(r"\n\s*disallow [^\n]*", "", text)


def with_difference(text: str, name: str) -> str:
    """``pos`` plus the unsound ``E1 - E2`` clause."""
    extra = (
        f"    | decl int Expr E1, E2:\n        E1 - E2, where {name}(E1) && {name}(E2)\n"
    )
    return re.sub(r"(\n  invariant)", "\n" + extra.rstrip("\n") + r"\1", text, count=1)


@dataclass(frozen=True)
class LibraryQualifier:
    """A renamed library qualifier with its expected verdict: ``sound``
    for the whole qualifier and, when known, the rule prefix of the one
    obligation that must fail."""

    name: str
    text: str
    sound: bool
    failing_rule: Optional[str] = None


REF_VARIANTS = ("unique", "unique-nodisallow", "unaliased", "unaliased-nodisallow")
VALUE_VARIANTS = ("pos", "neg", "nonneg", "nonzero", "nonnull", "pos-difference")


def library_qualifier(texts: Dict[str, str], variant: str, tag: str) -> LibraryQualifier:
    base = variant.split("-")[0]
    name = f"{base}_{tag}"
    text = rename(texts[base], base, name).strip() + "\n"
    if variant.endswith("nodisallow"):
        return LibraryQualifier(name, without_disallow(text), False)
    if variant == "pos-difference":
        n_cases = text.count("decl ")
        return LibraryQualifier(
            name, with_difference(text, name), False, f"case {n_cases + 1}:"
        )
    return LibraryQualifier(name, text, True)


# ---------------------------------------------------------- prove files


@dataclass
class ProveFile:
    text: str
    linear: List[LinearQualifier]
    library: List[LibraryQualifier]


#: Linear qualifiers per file, by reference qualifier: ``unaliased``
#: proves in about half the time of ``unique``, so its files carry more
#: value qualifiers and every file costs about the same.  The k-th
#: linear qualifier has ``2 + k % 3`` cases, so each kind of file has a
#: fixed number of cases; the seed draws their shapes and bounds.
LINEAR_PER_FILE = {"unique": 3, "unaliased": 11}


def generate_file(
    rng: random.Random, texts: Dict[str, str], ref_variant: str, value_variant: str, tag: str
) -> ProveFile:
    lib = [
        library_qualifier(texts, ref_variant, tag),
        library_qualifier(texts, value_variant, tag),
    ]
    linear = [
        random_linear(rng, f"lin_{tag}_{k}", 2 + k % 3)
        for k in range(LINEAR_PER_FILE[ref_variant.split("-")[0]])
    ]
    parts = [q.text for q in lib[1:]] + [q.text() for q in linear] + [lib[0].text]
    return ProveFile("\n".join(parts), linear, lib)


def check_report(pf: ProveFile, qualifiers: List[dict]) -> List[str]:
    """Mismatches between a prove report's per-qualifier entries and
    the expected verdicts (empty when everything agrees)."""
    problems: List[str] = []
    by_name = {q["qualifier"]: q for q in qualifiers}
    for lq in pf.linear:
        entry = by_name.get(lq.name)
        if entry is None:
            problems.append(f"{lq.name}: missing from report")
            continue
        cases = [o for o in entry["obligations"] if o["rule"].startswith("case ")]
        if len(cases) != len(lq.clauses):
            problems.append(f"{lq.name}: {len(cases)} case obligations, want {len(lq.clauses)}")
            continue
        for k, (obl, sound) in enumerate(zip(cases, lq.expected())):
            if not obl["rule"].startswith(f"case {k + 1}:"):
                problems.append(f"{lq.name}: obligation order {obl['rule']!r}")
            elif sound and obl["verdict"] != "PROVED":
                problems.append(f"{lq.name} case {k + 1}: {obl['verdict']}, want PROVED")
            elif not sound and obl["verdict"] not in ("REFUTED", "GAVE_UP"):
                problems.append(f"{lq.name} case {k + 1}: {obl['verdict']}, want not proved")
    for lib in pf.library:
        entry = by_name.get(lib.name)
        if entry is None:
            problems.append(f"{lib.name}: missing from report")
            continue
        if bool(entry["sound"]) != lib.sound:
            problems.append(f"{lib.name}: sound={entry['sound']}, want {lib.sound}")
        if lib.failing_rule:
            for obl in entry["obligations"]:
                failing = obl["rule"].startswith(lib.failing_rule)
                if failing == (obl["verdict"] == "PROVED"):
                    problems.append(f"{lib.name} {obl['rule']!r}: {obl['verdict']}")
    return problems
