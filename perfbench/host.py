"""The program side of the benchmark: one process that hosts ``repro``.

``run.py`` starts this script with the checkout's ``src`` on
``PYTHONPATH`` and drives it over stdin/stdout, one JSON object per
line.  On start it imports ``repro``, builds a workspace and its
qualifier set, runs one untimed warm-up operation, and prints a
``ready`` line; the parent's clock from launch to that line is the
set-up time.  Each later request is one operation, timed here around
the call into ``repro.api`` alone (wall and CPU), so serialisation and
the oracle checks in the parent stay outside the measured service time.

Traced requests (``trace_*``) wrap the public functions at each layer
boundary for the length of one call, from this file; the program's own
code is not changed.

Usage: ``python3 host.py MODE WARMUP_PATH`` with MODE ``check``,
``prove`` or ``ref``; the warm-up path may be ``-`` for none.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List

from repro import api

#: Per-obligation prover limit: far above any proof the workloads need
#: (about 50 ms each), so a loaded machine cannot turn PROVED into
#: TIMEOUT.
PROVE_TIME_LIMIT = 600.0


def _check(path: str) -> api.Report:
    return api.Workspace().check(api.CheckRequest(files=(path,)))


def _prove(path: str, profile: bool = False) -> api.Report:
    workspace = api.Workspace(api.SessionConfig(cache=False))
    return workspace.prove(
        api.ProveRequest(
            files=(path,),
            cache=False,
            time_limit=PROVE_TIME_LIMIT,
            profile=profile,
        )
    )


def _timed(call: Callable[[], object]):
    wall, cpu = time.perf_counter(), time.process_time()
    result = call()
    return result, time.perf_counter() - wall, time.process_time() - cpu


def _check_summary(report: api.Report) -> List[dict]:
    return [
        {
            "unit": unit.unit,
            "verdict": unit.verdict,
            "error": unit.error,
            "diags": [
                [d.get("function", ""), d.get("qualifier", ""), d.get("kind", "")]
                for d in unit.diagnostics
            ],
            "iterations": unit.detail.get("dataflow", {})
            .get("totals", {})
            .get("iterations", 0),
        }
        for unit in report.results
    ]


def _prove_summary(report: api.Report) -> List[dict]:
    return [
        {
            "unit": unit.unit,
            "verdict": unit.verdict,
            "error": unit.error,
            "qualifiers": unit.detail.get("qualifiers", []),
        }
        for unit in report.results
    ]


# ----------------------------------------------------------- layer spans


class Spans:
    """Accumulated self-reported time and call counts per layer name."""

    def __init__(self):
        self.ms: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.tokens = 0

    def add(self, name: str, seconds: float) -> None:
        self.ms[name] = self.ms.get(name, 0.0) + seconds * 1000.0
        self.calls[name] = self.calls.get(name, 0) + 1


def _rebind(original, replacement) -> List[tuple]:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``; returns what to restore."""
    undo = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


@contextmanager
def traced(spans: Spans, targets: Dict[str, Callable], count_tokens: bool = False):
    """Time every call to each target function (by layer name) while
    the block runs.  Functions are found by identity wherever a
    ``repro`` module has bound them, so ``from x import f`` call sites
    are covered too; methods are given as ``(class, attribute)``."""
    undo = []
    try:
        for layer, target in targets.items():
            if isinstance(target, tuple):
                owner, attr = target
                original = getattr(owner, attr)
                setattr(owner, attr, _wrap(spans, layer, original, False))
                undo.append((owner, attr, original))
            else:
                wrapper = _wrap(spans, layer, target, count_tokens and layer == "lex")
                undo.extend(_rebind(target, wrapper))
        yield spans
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _wrap(spans: Spans, layer: str, fn, count_tokens: bool):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.add(layer, time.perf_counter() - start)
        if count_tokens:
            spans.tokens += len(result)
        return result

    return wrapper


def _check_layers():
    from repro.cfront import lexer, parser
    from repro.cil import lower
    from repro.core.checker.typecheck import QualifierChecker

    return {
        "lex": lexer.tokenize,
        "parse": parser.parse_c,
        "lower": lower.lower_unit,
        "typecheck": (QualifierChecker, "check"),
    }


def _prove_layers():
    from repro.core.qualifiers import parser as qparser
    from repro.core.soundness import checker, obligations

    return {
        "parse_quals": qparser.parse_qualifiers,
        "generate": obligations.generate_obligations,
        "discharge": checker.discharge_obligation,
    }


def _edit_layers():
    from repro.cache import fingerprint
    from repro.cfront import parser

    return {
        "parse": parser.parse_c,
        "fingerprint": fingerprint.unit_function_fingerprints,
    }


# -------------------------------------------------------------- requests


class Host:
    def __init__(self):
        # Building the workspace and its qualifier set is part of set-up.
        api.Workspace().qualifier_set()
        self.incremental = None
        self.flip = False

    def handle(self, req: dict) -> dict:
        op = req["op"]
        if op == "check":
            report, wall, cpu = _timed(lambda: _check(req["path"]))
            return {"latency": wall, "cpu": cpu, "units": _check_summary(report)}
        if op == "prove":
            report, wall, cpu = _timed(lambda: _prove(req["path"]))
            return {"latency": wall, "cpu": cpu, "units": _prove_summary(report)}
        if op == "ref":
            report = api.Workspace().check(api.CheckRequest(files=tuple(req["paths"])))
            return {"units": [unit.to_dict() for unit in report.results]}
        if op == "trace_check":
            return self._trace_check(req["path"])
        if op == "trace_prove":
            return self._trace_prove(req["path"])
        if op == "trace_edit":
            return self._trace_edit(req["paths"])
        if op == "generate":
            return {"lines": generate(req["specs"])}
        if op == "peak_rss":
            return {"kb": peak_rss_kb()}
        raise ValueError(f"unknown op {op!r}")

    def _both(self, untraced_call, traced_call):
        """Run an operation untraced and traced, alternating which goes
        first from one request to the next: the second of two
        back-to-back runs is faster, and alternating cancels that out
        of the mean tracing overhead."""
        self.flip = not self.flip
        if self.flip:
            _, untraced, _ = _timed(untraced_call)
            traced_result = traced_call()
        else:
            traced_result = traced_call()
            _, untraced, _ = _timed(untraced_call)
        return untraced, traced_result

    def _trace_check(self, path: str) -> dict:
        spans = Spans()

        def traced_call():
            with traced(spans, _check_layers(), count_tokens=True):
                return _timed(lambda: _check(path))

        untraced, (report, wall, _) = self._both(lambda: _check(path), traced_call)
        return {
            "untraced": untraced,
            "traced": wall,
            "ms": spans.ms,
            "tokens": spans.tokens,
            "units": _check_summary(report),
        }

    def _trace_prove(self, path: str) -> dict:
        spans = Spans()

        def traced_call():
            with traced(spans, _prove_layers()):
                return _timed(lambda: _prove(path, profile=True))

        untraced, (report, wall, _) = self._both(lambda: _prove(path), traced_call)
        timings = report.to_dict().get("timings", {})
        return {
            "untraced": untraced,
            "traced": wall,
            "ms": spans.ms,
            "calls": spans.calls,
            "prover": timings.get("prover", {}),
            "counters": timings.get("counters", {}),
            "units": _prove_summary(report),
        }

    def _trace_edit(self, paths: List[str]) -> dict:
        """One request of the edit stream through an in-process
        incremental workspace (the first call fills its verdict
        store)."""
        request = api.CheckRequest(files=tuple(paths))
        if self.incremental is None:
            self.incremental = api.Workspace(incremental=True)
            self.incremental.check(request)
        spans = Spans()
        with traced(spans, _edit_layers()):
            report, wall, _ = _timed(lambda: self.incremental.check(request))
        return {
            "latency": wall,
            "ms": spans.ms,
            "calls": spans.calls,
            "incremental": report.to_dict().get("incremental", {}),
        }


def generate(specs: List[dict]) -> List[int]:
    """Write seeded ``repro.corpus`` modules: each spec names a kind
    (``dfa``, ``bftpd``, ``mingetty``, ``identd``), a target line count
    and a path.  The generators' size parameters are scaled by one
    factor, found by bisection, to come closest to the target."""
    from repro import corpus

    defaults = {
        "dfa": (corpus.generate_dfa_module, (17, 15, 14, 10, 52)),
        "bftpd": (corpus.generate_bftpd, (15, 11, 12)),
        "mingetty": (corpus.generate_mingetty, (9, 3)),
        "identd": (corpus.generate_identd, (6, 5)),
    }
    lines = []
    for spec in specs:
        fn, base = defaults[spec["kind"]]
        extra = {"seed": spec["seed"]} if spec["kind"] == "dfa" else {}

        def build(scale: float) -> str:
            counts = [max(1, round(n * scale)) for n in base]
            return fn(*counts, **extra)

        lo, hi = 0.02, 20.0
        for _ in range(30):
            mid = (lo + hi) / 2
            if build(mid).count("\n") < spec["lines"]:
                lo = mid
            else:
                hi = mid
        text = min(
            (build(lo), build(hi)),
            key=lambda t: abs(t.count("\n") - spec["lines"]),
        )
        with open(spec["path"], "w") as handle:
            handle.write(text)
        lines.append(text.count("\n"))
    return lines


def peak_rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    mode, warmup = sys.argv[1], sys.argv[2]
    host = Host()
    if warmup != "-":
        host.handle({"op": mode, "path": warmup})
    out = sys.stdout
    out.write(json.dumps({"ready": True}) + "\n")
    out.flush()
    for line in sys.stdin:
        req = json.loads(line)
        try:
            reply = host.handle(req)
        except Exception as exc:  # report, keep serving: the parent counts it
            reply = {"exception": f"{type(exc).__name__}: {exc}"}
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
