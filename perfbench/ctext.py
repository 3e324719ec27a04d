"""Plain-text views of C sources, made without the program under test.

The benchmark's oracles must not share code with the checker they
judge, so this module reads C with a few regular expressions and
counts what the oracles need: dereference sites, function bodies, and
the statements of the small annotated units the benchmark writes
itself (see :mod:`perfbench.planted`).  It handles the subset the
benchmark feeds the program: no preprocessor, no typedefs, types
spelled with builtin names or ``struct``/``union`` tags.
"""

from __future__ import annotations

import re
from typing import Dict, List

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>/\*.*?\*/|//[^\n]*)
  | (?P<string>"(?:\\.|[^"\\])*"|'(?:\\.|[^'\\])*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>[0-9][0-9A-Za-z_.]*)
  | (?P<op>->|\+\+|--|&&|\|\||<<=|>>=|<<|>>|[<>=!+\-*/%&|^]=|\.\.\.|[^\sA-Za-z0-9_])
    """,
    re.VERBOSE | re.DOTALL,
)

#: Words that can end a type in a declaration, so a ``*`` after them is
#: a declarator, not an operator.
_TYPE_WORDS = {
    "int", "char", "void", "long", "short", "unsigned", "signed",
    "float", "double", "const", "volatile",
}

#: Tokens after which a ``*`` is a prefix (dereference) operator.
_PREFIX_CONTEXT = {
    "(", "[", "{", "}", ";", ",", "=", "return", "!", "~", "&&", "||",
    "?", ":", "<", ">", "<=", ">=", "==", "!=", "+", "-", "/", "%", "&",
    "|", "^", "<<", ">>", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<=", ">>=", "sizeof", "case",
}


def tokens(source: str) -> List[str]:
    """Tokens of ``source``: comments and whitespace dropped, string and
    character literals kept as one token each."""
    return [
        match.group(0)
        for match in _TOKEN.finditer(source)
        if match.lastgroup not in ("ws", "comment")
    ]


def _is_value_end(tok: str) -> bool:
    return tok in (")", "]", "++", "--") or bool(
        re.match(r"[A-Za-z0-9_'\"]", tok)
    )


def count_derefs(source: str) -> int:
    """Dereference sites in ``source``: every ``->``, every prefix
    ``*`` in an expression, and every subscript of an expression.

    Declarator stars (``char* s``, ``struct dfa* d``, casts) and array
    declarators (``char buf[512];``) are not dereferences.
    """
    toks = tokens(source)
    struct_tags = {
        toks[i + 1]
        for i, t in enumerate(toks[:-1])
        if t in ("struct", "union")
    }
    type_words = _TYPE_WORDS | struct_tags
    count = -_address_only_sites(toks)
    star_kind: Dict[int, str] = {}  # index -> 'deref' | 'decl' | 'mul'
    for i, tok in enumerate(toks):
        prev = toks[i - 1] if i else ";"
        if tok == "->":
            count += 1
        elif tok == "*":
            if prev == "*":
                kind = "decl" if star_kind.get(i - 1) == "decl" else "deref"
            elif prev == ")" and _closes_cast(toks, i - 1, type_words):
                kind = "deref"
            elif prev in type_words or prev == "__attribute__":
                kind = "decl"
            elif prev in _PREFIX_CONTEXT:
                kind = "deref"
            else:
                kind = "mul"
            star_kind[i] = kind
            if kind == "deref":
                count += 1
        elif tok == "[" and _is_value_end(prev):
            if not _is_array_declarator(toks, i, type_words, star_kind):
                count += 1
    return count


def untainted_call_sites(source: str) -> int:
    """Arguments passed for a parameter declared
    ``__attribute__((untainted))`` in a prototype: one per such
    parameter per call.

    Without the constants rule the library's ``untainted`` admits no
    expression, so every one of them is a violation as long as nothing
    else in the file is declared untainted; a function definition with
    an untainted parameter raises ``ValueError``, since a use of that
    parameter would be untainted and this count does not scope names.
    """
    toks = tokens(source)
    annotated: Dict[str, int] = {}
    depth = 0
    calls = 0
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok == "{":
            depth += 1
        elif tok == "}":
            depth -= 1
        elif depth == 0 and re.match(r"[A-Za-z_]", tok) and toks[i + 1 : i + 2] == ["("]:
            close = _matching(toks, i + 1)
            marks = sum(
                1 for j in range(i + 2, close)
                if toks[j] == "untainted" and toks[j - 3 : j] == ["__attribute__", "(", "("]
            )
            if marks and toks[close + 1 : close + 2] == ["{"]:
                raise ValueError(f"definition of {tok} has an untainted parameter")
            if marks:
                annotated[tok] = marks
            i = close
        elif depth > 0 and tok in annotated and toks[i + 1 : i + 2] == ["("]:
            calls += annotated[tok]
        i += 1
    return calls


def _matching(toks: List[str], open_index: int) -> int:
    """Index of the ``)`` that closes the ``(`` at ``open_index``."""
    depth = 0
    for j in range(open_index, len(toks)):
        if toks[j] == "(":
            depth += 1
        elif toks[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    raise ValueError("unbalanced parentheses")


def _address_only_sites(toks: List[str]) -> int:
    """Subscripts and arrows that only compute an address: in
    ``&d->states[s]`` the last ``[s]`` is pointer arithmetic on
    ``d->states``, not a read, so it is no dereference site."""
    sites = 0
    for i, tok in enumerate(toks):
        prev = toks[i - 1] if i else ";"
        if tok != "&" or _is_value_end(prev):
            continue
        j = i + 1
        last = None  # index of the last '->' or '[' in the operand chain
        if j < len(toks) and re.match(r"[A-Za-z_]", toks[j]):
            j += 1
            while j < len(toks):
                if toks[j] in ("->", ".") and j + 1 < len(toks):
                    if toks[j] == "->":
                        last = j
                    j += 2
                elif toks[j] == "[":
                    last = j
                    depth = 0
                    while j < len(toks):
                        depth += {"[": 1, "]": -1}.get(toks[j], 0)
                        j += 1
                        if depth == 0:
                            break
                else:
                    break
        if last is not None:
            sites += 1
    return sites


def _closes_cast(toks: List[str], close: int, type_words) -> bool:
    """Whether the ``)`` at ``close`` ends a cast like ``(int*)``, so a
    following ``*`` is a prefix operator."""
    depth = 0
    for j in range(close, -1, -1):
        if toks[j] == ")":
            depth += 1
        elif toks[j] == "(":
            depth -= 1
            if depth == 0:
                if j and (toks[j - 1] == "sizeof" or re.match(r"\w", toks[j - 1])):
                    return False  # sizeof(T) or a call, not a cast
                inner = toks[j + 1 : close]
                return bool(inner) and inner[0] in type_words | {"struct", "union"}
    return False


def _is_array_declarator(toks, i, type_words, star_kind) -> bool:
    """``name[`` where ``name`` is being declared (``char buf[512]``)."""
    if i < 2 or not re.match(r"[A-Za-z_]", toks[i - 1]):
        return False
    before = toks[i - 2]
    return before in type_words or star_kind.get(i - 2) == "decl"


_FUNC_HEAD = re.compile(
    r"^[A-Za-z_][^;{}()]*?\b([A-Za-z_][A-Za-z0-9_]*)\s*\([^;{}]*\)\s*\{",
    re.MULTILINE,
)


def function_bodies(source: str) -> Dict[str, str]:
    """Each function definition's full text (header to closing brace),
    keyed by name, found by brace matching from column-0 headers."""
    bodies: Dict[str, str] = {}
    for match in _FUNC_HEAD.finditer(source):
        start = match.start()
        depth = 0
        pos = match.end() - 1
        while pos < len(source):
            ch = source[pos]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    break
            pos += 1
        bodies[match.group(1)] = source[start : pos + 1]
    return bodies


def changed_functions(before: Dict[str, str], after: Dict[str, str]) -> int:
    """How many functions' text differs between two sets of bodies."""
    names = set(before) | set(after)
    return sum(1 for name in names if before.get(name) != after.get(name))
