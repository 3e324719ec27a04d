"""Small annotated C units with planted qualifier violations.

``generate_unit`` writes a unit whose functions take qualified
parameters (``int pos a``, ``int* nonnull p``, ...) and mix declarations,
divisions and dereferences.  Which statements violate a qualifier is
not decided by the generator: ``expected_diagnostics`` derives it from
two texts only, the unit's C source and the rule text of the qualifier
library, by evaluating each qualifier's ``case`` and ``restrict``
clauses on the unit's expressions.  For example ``a / n`` with
``int neg n`` is a ``nonzero`` violation, because ``nonzero`` admits
only non-zero constants, ``pos`` expressions and products of
``nonzero`` expressions.

The rule text is read from the library module's source with
:mod:`ast`, never imported, so the oracle shares no code with the
checker.
"""

from __future__ import annotations

import ast
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: The library's value qualifiers that planted units annotate with.
VALUE_QUALS = ("pos", "neg", "nonneg", "nonzero")

# ------------------------------------------------------------ expressions


@dataclass(frozen=True)
class Expr:
    """A parsed expression: ``op`` is ``var``/``const``/``neg``/``deref``/
    ``addr`` or a binary operator; ``args`` holds sub-expressions, and
    ``name`` the identifier or literal text."""

    op: str
    args: Tuple["Expr", ...] = ()
    name: str = ""


_EXPR_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[0-9]+|&&|[-+*/&(),<>=!]=?)")


class _Parser:
    """Precedence-climbing parser for the expression subset that both
    planted units and qualifier patterns use."""

    _PREC = {"+": 1, "-": 1, "*": 2, "/": 2}

    def __init__(self, text: str):
        self.toks = _EXPR_TOKEN.findall(text)
        if "".join(self.toks) != re.sub(r"\s+", "", text):
            raise ValueError(f"cannot tokenize expression: {text!r}")
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos] if self.pos < len(self.toks) else ""

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        expr = self.binary(1)
        if self.peek():
            raise ValueError(f"trailing tokens: {self.toks[self.pos:]}")
        return expr

    def binary(self, level: int) -> Expr:
        left = self.unary()
        while self._PREC.get(self.peek(), 0) >= level:
            op = self.take()
            right = self.binary(self._PREC[op] + 1)
            left = Expr(op, (left, right))
        return left

    def unary(self) -> Expr:
        tok = self.peek()
        if tok in ("-", "*", "&"):
            self.take()
            kind = {"-": "neg", "*": "deref", "&": "addr"}[tok]
            return Expr(kind, (self.unary(),))
        if tok == "(":
            self.take()
            inner = self.binary(1)
            self.take(")")
            return inner
        self.take()
        if tok.isdigit():
            return Expr("const", name=tok)
        if re.match(r"[A-Za-z_]", tok):
            return Expr("var", name=tok)
        raise ValueError(f"unexpected token {tok!r}")


def parse_expr(text: str) -> Expr:
    return _Parser(text).parse()


def render(expr: Expr) -> str:
    """C text for ``expr``, fully parenthesized."""
    if expr.op in ("var", "const"):
        return expr.name
    if expr.op in ("neg", "deref", "addr"):
        sym = {"neg": "-", "deref": "*", "addr": "&"}[expr.op]
        inner = render(expr.args[0])
        if expr.args[0].op not in ("var", "const"):
            inner = f"({inner})"
        return sym + inner
    left, right = (render(a) for a in expr.args)
    return f"({left} {expr.op} {right})"


def subexpressions(expr: Expr):
    yield expr
    for arg in expr.args:
        yield from subexpressions(arg)


# ---------------------------------------------------------------- rules


@dataclass(frozen=True)
class Clause:
    """One ``case`` or ``restrict`` clause: ``kinds`` maps each
    metavariable to its declared kind (``Const``, ``Expr``, ``LValue``),
    ``conditions`` are the conjuncts of its ``where`` part."""

    kinds: Tuple[Tuple[str, str], ...]
    pattern: Expr
    conditions: Tuple[str, ...]


@dataclass(frozen=True)
class Rule:
    name: str
    cases: Tuple[Clause, ...]
    restricts: Tuple[Clause, ...]


def library_texts(library_py: str) -> Dict[str, str]:
    """Source text of each qualifier in the library's standard set,
    keyed by name.  Both the ``*_SOURCE`` string constants and the
    names that ``standard_qualifiers`` returns are read from the
    module's text with :mod:`ast`; nothing is imported."""
    module = ast.parse(library_py)
    sources: Dict[str, str] = {}
    standard: List[str] = []
    for node in module.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.endswith("_SOURCE")
            and isinstance(node.value, ast.Constant)
        ):
            sources[node.targets[0].id[: -len("_SOURCE")]] = node.value.value
        if isinstance(node, ast.FunctionDef) and node.name == "standard_qualifiers":
            for sub in ast.walk(node):
                if isinstance(sub, ast.List):
                    standard = [e.id for e in sub.elts if isinstance(e, ast.Name)]
    texts: Dict[str, str] = {}
    for const in standard:
        text = sources.get(const)
        if text is not None:
            texts[re.search(r"qualifier\s+(\w+)", text).group(1)] = text
    return texts


def _section(text: str, start: str, stops: Sequence[str]) -> str:
    match = re.search(rf"\b{start}\b", text)
    if not match:
        return ""
    body = text[match.end():]
    cut = min(
        (m.start() for s in stops for m in [re.search(rf"\b{s}\b", body)] if m),
        default=len(body),
    )
    return body[:cut]


def _clauses(section: str) -> Tuple[Clause, ...]:
    out: List[Clause] = []
    for chunk in re.split(r"\n\s*\|", section):
        chunk = chunk.strip()
        if not chunk:
            continue
        kinds: List[Tuple[str, str]] = []
        decl = re.match(r"decl\s+(.*?):\s*(.*)$", chunk, re.DOTALL)
        if decl:
            for group in re.finditer(
                r"\b(Const|Expr|LValue|Var)\s+(\w+(?:\s*,\s*\w+)*)",
                decl.group(1),
            ):
                for var in group.group(2).split(","):
                    kinds.append((var.strip(), group.group(1)))
            chunk = decl.group(2).strip()
        pattern, _, where = chunk.partition(", where")
        conditions = tuple(c.strip() for c in where.split("&&") if c.strip())
        out.append(Clause(tuple(kinds), parse_expr(pattern.strip()), conditions))
    return tuple(out)


def parse_rule(text: str) -> Rule:
    """The ``case`` and ``restrict`` clauses of one value qualifier."""
    name = re.search(r"qualifier\s+(\w+)", text).group(1)
    cases = _section(text, r"case\s+\w+\s+of", ("restrict", "invariant"))
    restricts = _section(text, "restrict", ("invariant",))
    return Rule(name, _clauses(cases), _clauses(restricts))


def load_rules(library_py: str) -> Dict[str, Rule]:
    """Rules of every value qualifier with clauses in the library text."""
    rules: Dict[str, Rule] = {}
    for name, text in library_texts(library_py).items():
        if text.lstrip().startswith("value qualifier"):
            rules[name] = parse_rule(text)
    return rules


# ----------------------------------------------------------- evaluation


class Derivation:
    """Decides ``q(e)`` for a function's expressions from the rules and
    the qualifiers each variable is declared with."""

    def __init__(self, rules: Dict[str, Rule], declared: Dict[str, Set[str]]):
        self.rules = rules
        self.declared = declared
        self._active: Set[Tuple[str, Expr]] = set()

    def holds(self, qual: str, expr: Expr) -> bool:
        if expr.op == "var" and qual in self.declared.get(expr.name, ()):
            return True
        rule = self.rules.get(qual)
        key = (qual, expr)
        if rule is None or key in self._active:
            return False
        self._active.add(key)
        try:
            return any(self._clause_holds(c, expr) for c in rule.cases)
        finally:
            self._active.discard(key)

    def _clause_holds(self, clause: Clause, expr: Expr) -> bool:
        binding = self.match(clause, expr)
        return binding is not None and all(
            self._condition(c, binding) for c in clause.conditions
        )

    def match(self, clause: Clause, expr: Expr) -> Optional[Dict[str, Expr]]:
        kinds = dict(clause.kinds)
        binding: Dict[str, Expr] = {}

        def walk(pat: Expr, e: Expr) -> bool:
            if pat.op == "var":  # every pattern variable is a metavariable
                kind = kinds.get(pat.name, "Expr")
                if kind == "Const" and e.op != "const":
                    return False
                if kind in ("LValue", "Var") and e.op != "var":
                    return False
                if pat.name in binding:
                    return binding[pat.name] == e
                binding[pat.name] = e
                return True
            if pat.op != e.op or len(pat.args) != len(e.args):
                return False
            return all(walk(p, a) for p, a in zip(pat.args, e.args))

        return binding if walk(clause.pattern, expr) else None

    def _condition(self, cond: str, binding: Dict[str, Expr]) -> bool:
        call = re.fullmatch(r"(\w+)\((\w+)\)", cond)
        if call:
            return self.holds(call.group(1), binding[call.group(2)])
        cmp = re.fullmatch(r"(\w+)\s*(==|!=|<=|>=|<|>)\s*(-?\d+)", cond)
        if cmp:
            value = int(binding[cmp.group(1)].name)
            bound = int(cmp.group(3))
            return {
                "==": value == bound, "!=": value != bound,
                "<=": value <= bound, ">=": value >= bound,
                "<": value < bound, ">": value > bound,
            }[cmp.group(2)]
        raise ValueError(f"unsupported where-condition: {cond!r}")

    def violations(self, expr: Expr) -> List[str]:
        """Qualifiers whose ``restrict`` clauses ``expr`` breaks, one
        entry per offending sub-expression."""
        out: List[str] = []
        for sub in subexpressions(expr):
            for rule in self.rules.values():
                for clause in rule.restricts:
                    binding = self.match(clause, sub)
                    if binding is not None and not all(
                        self._condition(c, binding) for c in clause.conditions
                    ):
                        out.append(rule.name)
        return out


# ------------------------------------------------------ planted units


_HEADER = re.compile(r"^int (\w+)\((.*)\) \{$")
_DECL = re.compile(r"^(int\*?)\s*(\w+)?\s+(\w+) = (.*);$")
_ASSIGN = re.compile(r"^(\w+) = (.*);$")
_RETURN = re.compile(r"^return (.*);$")


def expected_diagnostics(source: str, rules: Dict[str, Rule]) -> Counter:
    """The ``(function, qualifier)`` multiset a correct checker reports
    for a planted unit: one entry per assignment whose value lacks the
    target's qualifier, and one per ``restrict`` clause broken by a
    sub-expression."""
    expected: Counter = Counter()
    func = ""
    declared: Dict[str, Set[str]] = {}
    for raw in source.splitlines():
        line = raw.strip()
        if not line or line.startswith("/*") or line == "}":
            continue
        header = _HEADER.match(line)
        if header:
            func = header.group(1)
            declared = {}
            for param in header.group(2).split(","):
                words = param.replace("*", " ").split()
                declared[words[-1]] = set(words[1:-1])
            continue
        decl = _DECL.match(line)
        assign = _ASSIGN.match(line)
        ret = _RETURN.match(line)
        if decl:
            target, value = decl.group(3), decl.group(4)
            declared[target] = {decl.group(2)} if decl.group(2) else set()
        elif assign:
            target, value = assign.group(1), assign.group(2)
        elif ret:
            target, value = "", ret.group(1)
        else:
            raise ValueError(f"unexpected planted-unit line: {raw!r}")
        expr = parse_expr(value)
        derive = Derivation(rules, declared)
        for qual in declared.get(target, ()) if target else ():
            if not derive.holds(qual, expr):
                expected[(func, qual)] += 1
        for qual in derive.violations(expr):
            expected[(func, qual)] += 1
    return expected


def generate_unit(rng: random.Random, tag: str, n_functions: int) -> str:
    """A planted unit of ``n_functions`` functions, each with 5 to 9
    statements over qualified parameters and its own locals."""
    parts = [f"/* planted unit {tag} */"]
    for index in range(n_functions):
        parts.append(_function(rng, f"{tag}_f{index}"))
    return "\n".join(parts) + "\n"


def _function(rng: random.Random, name: str) -> str:
    ints = {"a": "pos", "b": "neg", "c": "nonneg", "d": "nonzero", "e": ""}
    ptrs = {"p": "nonnull", "q": ""}
    lines = [
        f"int {name}(int pos a, int neg b, int nonneg c, int nonzero d, "
        "int e, int* nonnull p, int* q) {",
        "  int r = 0;",
    ]
    for k in range(rng.randint(5, 9)):
        kind = rng.choice(("decl", "decl", "div", "deref", "ptr"))
        if kind == "decl":
            qual = rng.choice(VALUE_QUALS)
            local = f"t{k}"
            lines.append(f"  int {qual} {local} = {render(_int_expr(rng, ints, 2))};")
            ints[local] = qual
        elif kind == "div":
            num = _int_expr(rng, ints, 1)
            den = _int_expr(rng, ints, 2)
            lines.append(f"  r = {render(Expr('/', (num, den)))};")
        elif kind == "deref":
            ptr = Expr("var", name=rng.choice(sorted(ptrs)))
            lines.append(f"  r = {render(Expr('+', (Expr('var', name='r'), Expr('deref', (ptr,)))))};")
        else:
            local = f"s{k}"
            source = rng.choice(
                [Expr("addr", (Expr("var", name="r"),))]
                + [Expr("var", name=p) for p in sorted(ptrs)]
            )
            lines.append(f"  int* nonnull {local} = {render(source)};")
            ptrs[local] = "nonnull"
    lines.append("  return r;")
    lines.append("}")
    return "\n".join(lines)


def _int_expr(rng: random.Random, ints: Dict[str, str], depth: int) -> Expr:
    """A random integer expression over the variables in ``ints`` and
    the constants 0..9.  Unary minus is never applied to a literal, so
    whether ``-3`` is one constant or a negation cannot matter."""
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.3:
            return Expr("const", name=str(rng.randint(0, 9)))
        return Expr("var", name=rng.choice(sorted(ints)))
    op = rng.choice(("*", "*", "+", "-", "neg"))
    if op == "neg":
        inner = _int_expr(rng, ints, depth - 1)
        if inner.op == "const":
            inner = Expr("var", name=rng.choice(sorted(ints)))
        return Expr("neg", (inner,))
    return Expr(op, (_int_expr(rng, ints, depth - 1), _int_expr(rng, ints, depth - 1)))
