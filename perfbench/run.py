"""End-to-end benchmark of the qualifier checker: check, prove, served edits.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload check-cold --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``check-cold``  one ``check`` per C file on a fresh one-shot workspace;
* ``prove-cold``  one ``prove`` per ``.qual`` file, proof cache off;
* ``serve-edit``  a ``repro serve --workers 1`` daemon re-checks a
  seeded project after each one-function edit.

Each is a closed loop with one client: the next request is sent only
when the previous one has returned and its output has passed the
oracles.  The run repeats whole rounds of its seeded inputs until
``--seconds`` have passed and at least ``MIN_OPS`` operations were
made, so ten samples lie beyond the p90.  With ``--trace 1`` the run
replays every workload's inputs (a third of the time each) with the
benchmark's timers around each layer's public functions and prints
the per-layer metrics instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import ctext, planted, provegen  # noqa: E402

#: At least this many operations per workload run: ten beyond the p90.
#: ``check-cold`` (four rounds) and ``serve-edit`` (six) make more:
#: their latencies spread widest, so their percentiles need more samples.
MIN_OPS = {"check-cold": 144, "prove-cold": 100, "serve-edit": 120}
#: Fresh starts per run whose median is ``setup_s``.
SETUP_STARTS = {"check-cold": 5, "prove-cold": 5, "serve-edit": 3}
#: Hard wall-clock cap for the whole run, which must end within 180 s.
RUN_DEADLINE_S = 170
LIBRARY_PY = ROOT / "src" / "repro" / "core" / "qualifiers" / "library.py"


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {RUN_DEADLINE_S} s")


# ------------------------------------------------------------ processes


def program_env() -> Dict[str, str]:
    """The environment of every program process: no ``REPRO_*``
    variable (fault injection, daemon addresses and worker counts would
    change what is measured), the checkout's sources first on the path,
    and a fixed hash seed so set iteration order repeats."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Processes:
    """Every process the run starts, so each is stopped and waited for."""

    def __init__(self):
        self.procs: List[subprocess.Popen] = []

    def start(self, argv: List[str], cwd: Path, **kw) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, cwd=str(cwd), env=program_env(), start_new_session=True, **kw
        )
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, grace: float = 10.0) -> None:
        if proc.stdin is not None and not proc.stdin.closed:
            try:
                proc.stdin.close()
            except OSError:
                pass
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self._signal_group(proc, signal.SIGTERM)
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self._signal_group(proc, signal.SIGKILL)
                proc.wait()
        # A daemon's worker shares its process group; make sure it went.
        self._signal_group(proc, signal.SIGKILL)
        if proc.stdout is not None:
            proc.stdout.close()

    @staticmethod
    def _signal_group(proc: subprocess.Popen, sig: int) -> None:
        try:
            os.killpg(proc.pid, sig)
        except (ProcessLookupError, PermissionError):
            pass

    def stop_all(self) -> None:
        for proc in self.procs:
            self.stop(proc, grace=2.0)


class HostClient:
    """One ``host.py`` process and its request/reply pipe."""

    def __init__(self, procs: Processes, tmp: Path, mode: str, warmup: str = "-"):
        self.procs = procs
        start = time.perf_counter()
        self.proc = procs.start(
            [sys.executable, str(HERE / "host.py"), mode, warmup],
            cwd=tmp,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not ready or not json.loads(ready).get("ready"):
            raise RuntimeError(f"host ({mode}) did not start: {ready!r}")

    def call(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host died during {req.get('op')}")
        return json.loads(line)

    def close(self) -> None:
        self.procs.stop(self.proc)


# --------------------------------------------------------------- metrics


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(
    setup: List[float], latencies: List[float], cpu: float, rss_kb: float
) -> Dict[str, Tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_ms_p50": (statistics.median(latencies) * 1000, "ms"),
        "latency_ms_p90": (percentile(latencies, 90) * 1000, "ms"),
        "cpu_ms_per_op": (cpu * 1000 / len(latencies), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


class Tally:
    """Operations attempted and failed, and oracle mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def mismatch(self, what: str) -> None:
        if len(self.mismatches) < 20:
            print(f"oracle mismatch: {what}", file=sys.stderr)
        self.mismatches.append(what)


def rounds(
    items: List, seconds: float, min_ops: int, op: Callable[[object], None]
) -> None:
    """Run ``op`` over whole rounds of ``items`` until ``seconds`` have
    passed and at least ``min_ops`` operations were made."""
    start = time.perf_counter()
    done = 0
    while done < min_ops or time.perf_counter() - start < seconds:
        for item in items:
            op(item)
        done += len(items)


# ----------------------------------------------------------- check-cold


class Sizes:
    """Sizes of a workload's inputs; ``smoke`` shrinks every one."""

    def __init__(self, smoke: bool):
        self.corpus_lines = (150, 300) if smoke else (800, 2700)
        self.corpus_files = 3 if smoke else 24
        self.planted_units = 1 if smoke else 12
        self.prove_files = 4 if smoke else 24
        self.project_lines = (150, 300) if smoke else (585, 715)
        self.project_planted_functions = 8 if smoke else PROJECT_PLANTED_FUNCTIONS
        self.min_ops = dict.fromkeys(MIN_OPS, 1) if smoke else MIN_OPS
        self.setup_starts = 1 if smoke else None


def stratified(rng: random.Random, lo: float, hi: float, n: int) -> List[int]:
    """``n`` sizes spread evenly over ``[lo, hi]``, each drawn from its
    own stratum, so every run covers the range alike."""
    width = (hi - lo) / n
    return [round(lo + (i + rng.random()) * width) for i in range(n)]


SERVER_KINDS = ("bftpd", "mingetty", "identd")


def check_inputs(rng: random.Random, tmp: Path, sizes: Sizes) -> Tuple[List[dict], List[str]]:
    """Corpus specs (written by a host) and planted units (written
    here).  Returns (corpus specs, round order of all paths)."""
    lines = stratified(rng, *sizes.corpus_lines, sizes.corpus_files)
    # Kinds alternate along the size strata, so every seed has the same
    # mix of DFA modules and daemons at each size.
    kinds = ["dfa" if i % 2 == 0 else SERVER_KINDS[(i // 2) % 3] for i in range(len(lines))]
    specs = [
        {"kind": kind, "lines": n, "seed": rng.randrange(1 << 30), "path": str(tmp / f"corpus{i:02d}_{kind}.c")}
        for i, (kind, n) in enumerate(zip(kinds, lines))
    ]
    units = []
    for i in range(sizes.planted_units + 1):  # the extra one is the warm-up
        path = tmp / f"planted{i:02d}.c"
        path.write_text(planted.generate_unit(rng, f"u{i}", rng.randint(4, 8)))
        units.append(str(path))
    order = [s["path"] for s in specs] + units[1:]
    rng.shuffle(order)
    return specs, [units[0]] + order


class CheckOracle:
    """Expected diagnostics per input file, derived from its text: for
    a planted unit, a multiset of (function, qualifier); for a corpus
    file, of (qualifier, kind), and every diagnostic is counted."""

    def __init__(self):
        self.rules = planted.load_rules(LIBRARY_PY.read_text())
        self.expected: Dict[str, Tuple[bool, Counter]] = {}

    def verify(self, path: str, units: List[dict], tally: Tally) -> bool:
        """False when the operation failed; mismatches go to ``tally``."""
        if len(units) != 1 or units[0]["verdict"] not in ("OK", "WARNINGS"):
            return False
        diags = units[0]["diags"]
        if path not in self.expected:
            text = Path(path).read_text()
            if "planted unit" in text.split("\n", 1)[0]:
                self.expected[path] = (True, planted.expected_diagnostics(text, self.rules))
            else:
                self.expected[path] = (False, +Counter({
                    ("nonnull", "restrict"): ctext.count_derefs(text),
                    ("untainted", "call"): ctext.untainted_call_sites(text),
                }))
        is_planted, want = self.expected[path]
        if is_planted:
            got = Counter((f, q) for f, q, _ in diags)
        else:
            got = Counter((q, k) for _, q, k in diags)
        if got != want:
            tally.mismatch(f"{Path(path).name}: missing {dict(want - got)}, extra {dict(got - want)}")
        return True


def prepare_check(ctx) -> List[str]:
    specs, order = check_inputs(random.Random(f"check-{ctx.seed}"), ctx.tmp, ctx.sizes)
    gen = HostClient(ctx.procs, ctx.tmp, "ref")  # also warms the bytecode cache
    gen.call(op="generate", specs=specs)
    gen.close()
    return order


def run_check_cold(ctx) -> Dict[str, Tuple[float, str]]:
    order = prepare_check(ctx)
    oracle = CheckOracle()
    return run_cold(
        ctx, "check-cold", order[0], [(path, path) for path in order[1:]],
        lambda path, reply: "exception" not in reply
        and oracle.verify(path, reply["units"], ctx.tally),
    )


def run_cold(ctx, workload: str, warmup: str, items: List[tuple], verify) -> Dict[str, Tuple[float, str]]:
    """The closed loop of a cold workload: ``items`` are (path, expected)
    pairs; ``verify(expected, reply)`` is False when the operation
    failed and records oracle mismatches."""
    mode = workload.split("-")[0]
    host, setup = start_hosts(ctx, mode, warmup, SETUP_STARTS[workload])
    latencies: List[float] = []
    cpu = [0.0]

    def op(item):
        path, expected = item
        ctx.tally.attempted += 1
        reply = host.call(op=mode, path=path)
        if not verify(expected, reply):
            ctx.tally.failed += 1
            return
        latencies.append(reply["latency"])
        cpu[0] += reply["cpu"]

    rounds(items, ctx.seconds, ctx.sizes.min_ops[workload], op)
    rss = host.call(op="peak_rss")["kb"]
    host.close()
    return end_to_end(setup, latencies, cpu[0], rss)


def start_hosts(ctx, mode: str, warmup: str, starts: int) -> Tuple[HostClient, List[float]]:
    """Start a fresh host ``starts`` times, timing launch to ready, and
    keep the last one for the timed loop.  An untimed first start fills
    the bytecode and file caches."""
    starts = ctx.sizes.setup_starts or starts
    HostClient(ctx.procs, ctx.tmp, mode, warmup).close()
    setup: List[float] = []
    for i in range(starts):
        host = HostClient(ctx.procs, ctx.tmp, mode, warmup)
        setup.append(host.setup_s)
        if i < starts - 1:
            host.close()
    return host, setup


# ----------------------------------------------------------- prove-cold


def prove_inputs(rng: random.Random, tmp: Path, sizes: Sizes):
    texts = planted.library_texts(LIBRARY_PY.read_text())
    files = []
    for i in range(sizes.prove_files):
        # Variants cycle, so every seed has the same mix of them.
        ref = provegen.REF_VARIANTS[i % len(provegen.REF_VARIANTS)]
        value = provegen.VALUE_VARIANTS[i % len(provegen.VALUE_VARIANTS)]
        pf = provegen.generate_file(rng, texts, ref, value, f"{i:02d}")
        path = tmp / f"defs{i:02d}.qual"
        path.write_text(pf.text)
        files.append((str(path), pf))
    rng.shuffle(files)
    warm = tmp / "warmup.qual"
    warm.write_text(provegen.random_linear(rng, "warm", 3).text())
    return str(warm), files


def verify_prove(pf, reply: dict, tally: Tally) -> bool:
    units = reply.get("units", [])
    if "exception" in reply or len(units) != 1 or units[0]["verdict"] not in ("OK", "WARNINGS"):
        return False
    for problem in provegen.check_report(pf, units[0]["qualifiers"]):
        tally.mismatch(problem)
    return True


def run_prove_cold(ctx) -> Dict[str, Tuple[float, str]]:
    warm, files = prove_inputs(random.Random(f"prove-{ctx.seed}"), ctx.tmp, ctx.sizes)
    return run_cold(
        ctx, "prove-cold", warm, files,
        lambda pf, reply: verify_prove(pf, reply, ctx.tally),
    )


# ----------------------------------------------------------- serve-edit


EDIT_MARK = "int perfbench_edit = {value};"
#: Kinds of the project's corpus files.  All files, the planted unit
#: too, are about the same size (the centres of equal strata of
#: ``Sizes.project_lines``): a one-file edit then costs about the same
#: wherever it lands, and the requests that also restore the previous
#: file form their own cluster, so no percentile sits between sizes.
PROJECT_KINDS = ("dfa", "bftpd", "dfa", "mingetty", "dfa", "identd")
PROJECT_PLANTED_FUNCTIONS = 60
EDITS_PER_FILE = 3


class Project:
    """The served project: seeded files, their base texts, and a seeded
    round of edits.  Like a user at an editor, the round visits every
    file once, in seeded order, and makes ``EDITS_PER_FILE`` edits in it.
    Each request restores the base text of the previous edit's function
    and edits one function: it appends a declaration to the line that
    opens the body, so every line stays in place and no other
    function's span moves."""

    def __init__(self, ctx):
        rng = random.Random(f"serve-{ctx.seed}")
        lo, hi = ctx.sizes.project_lines
        width = (hi - lo) / len(PROJECT_KINDS)
        self.specs = [
            {"kind": kind, "lines": round(lo + (i + 0.5) * width),
             "seed": rng.randrange(1 << 30), "path": str(ctx.tmp / f"proj{i}_{kind}.c")}
            for i, kind in enumerate(PROJECT_KINDS)
        ]
        unit = ctx.tmp / "proj_planted.c"
        unit.write_text(planted.generate_unit(rng, "p", ctx.sizes.project_planted_functions))
        self.paths = [s["path"] for s in self.specs] + [str(unit)]
        self.rng = rng

    def load(self) -> None:
        self.base = {p: Path(p).read_text() for p in self.paths}
        self.current = dict(self.base)
        self.round = []
        for path in self.rng.sample(self.paths, len(self.paths)):
            names = sorted(ctext.function_bodies(self.base[path]))
            for _ in range(EDITS_PER_FILE):
                value = len(self.round) + 1
                self.round.append((path, self.rng.choice(names), value))
        self.previous: Optional[Tuple[str, str]] = None

    def bodies(self) -> Dict[str, str]:
        return {
            f"{p}:{name}": body
            for p in self.paths
            for name, body in ctext.function_bodies(self.current[p]).items()
        }

    def apply(self, edit) -> int:
        """Apply one edit on disk; returns how many functions' text
        changed since the previous request."""
        path, name, value = edit
        before = self.bodies()
        touched = {path}
        if self.previous is not None:
            prev_path, prev_name = self.previous
            self._set_body(prev_path, prev_name, ctext.function_bodies(self.base[prev_path])[prev_name])
            touched.add(prev_path)
        body = ctext.function_bodies(self.base[path])[name]
        head, _, rest = body.partition("{")
        self._set_body(path, name, f"{head}{{ {EDIT_MARK.format(value=value)}{rest}")
        self.previous = (path, name)
        for p in touched:
            Path(p).write_text(self.current[p])
        return ctext.changed_functions(before, self.bodies())

    def _set_body(self, path: str, name: str, new: str) -> None:
        old = ctext.function_bodies(self.current[path])[name]
        self.current[path] = self.current[path].replace(old, new, 1)

    def digest(self, path: str) -> str:
        return hashlib.sha256(self.current[path].encode()).hexdigest()


VOLATILE = {"elapsed", "ms", "incremental", "timings"}


def strip_volatile(value):
    """A report without its timing and incremental fields."""
    if isinstance(value, dict):
        return {k: strip_volatile(v) for k, v in value.items() if k not in VOLATILE}
    if isinstance(value, list):
        return [strip_volatile(v) for v in value]
    return value


def is_stream_line(raw: bytes, request_id: int) -> bool:
    """Whether ``raw`` is a stream line of request ``request_id``, told
    from its head alone, whatever the JSON spacing, so the client skips
    it without decoding."""
    return raw[:48].replace(b" ", b"").startswith(b'{"id":%d,"stream"' % request_id)


class ServeClient:
    """A minimal NDJSON client for the daemon's protocol (v1)."""

    def __init__(self, address: str, timeout: float = 120.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(address)
        self.reader = self.sock.makefile("rb")
        self.next_id = 0

    def request(self, op: str, params: dict) -> Tuple[dict, int, float]:
        """Send one request and read through its ``done`` line; returns
        (done message, response bytes, round trip in seconds).  The
        clock stops when the done line has arrived; decoding follows."""
        self.next_id += 1
        line = json.dumps({"id": self.next_id, "op": op, "params": params}).encode() + b"\n"
        start = time.perf_counter()
        self.sock.sendall(line)
        size = 0
        while True:
            raw = self.reader.readline()
            end = time.perf_counter()
            if not raw:
                raise ConnectionError("daemon closed the connection")
            size += len(raw)
            if is_stream_line(raw, self.next_id):
                continue
            message = json.loads(raw)
            if message.get("done"):
                return message, size, end - start

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU of one process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Daemon:
    """One ``repro serve --workers 1`` daemon on a socket in the run's
    temporary directory (a relative path, so its length never matters)."""

    def __init__(self, ctx, name: str):
        self.ctx = ctx
        self.address = f"{name}.sock"
        start = time.perf_counter()
        self.proc = ctx.procs.start(
            [sys.executable, "-m", "repro", "serve", "--workers", "1", "--socket", self.address],
            cwd=ctx.tmp,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        announce = self.proc.stdout.readline()
        if b"serving" not in announce:
            raise RuntimeError(f"daemon did not start: {announce!r}")
        path = ctx.tmp / self.address
        self.client = ServeClient(min(str(path), os.path.relpath(path), key=len))
        self.first, _, _ = self.client.request("check", {"files": ctx.project.paths})
        self.setup_s = time.perf_counter() - start

    def worker_pid(self) -> int:
        status, _, _ = self.client.request("status", {})
        for ws in status["result"]["workspaces"]:
            if ws.get("worker", {}).get("pid"):
                return ws["worker"]["pid"]
        raise RuntimeError("daemon reports no worker process")

    def close(self) -> None:
        try:
            self.client.request("shutdown", {})
        except (OSError, ConnectionError):
            pass
        self.client.close()
        self.ctx.procs.stop(self.proc)


class ServeOracle:
    """From-scratch one-shot reports of the project's file contents,
    one per distinct content, made by a separate host process."""

    def __init__(self, ctx, project: Project):
        self.project = project
        self.host = HostClient(ctx.procs, ctx.tmp, "ref")
        self.refs: Dict[Tuple[str, str], dict] = {}

    def reference(self) -> List[dict]:
        missing = [p for p in self.project.paths if (p, self.project.digest(p)) not in self.refs]
        if missing:
            for unit in self.host.call(op="ref", paths=missing)["units"]:
                path = unit["unit"]
                self.refs[(path, self.project.digest(path))] = strip_volatile(unit)
        return [self.refs[(p, self.project.digest(p))] for p in self.project.paths]

    def verify(self, done: dict, rechecked: Optional[int], tally: Tally) -> bool:
        report = done.get("report")
        if report is None:
            return False
        want = self.reference()
        got = strip_volatile(report.get("units", []))
        if got != want:
            names = [Path(u["unit"]).name for u, w in zip(got, want) if u != w]
            tally.mismatch(f"served report differs from one-shot check in {names or 'unit list'}")
        counts = dict(Counter(u["verdict"] for u in want))
        if report.get("counts") != counts:
            tally.mismatch(f"served counts {report.get('counts')}, want {counts}")
        if rechecked is not None:
            served = report.get("incremental", {}).get("rechecked")
            if served != rechecked:
                tally.mismatch(f"rechecked {served}, {rechecked} functions changed")
        return True


class ServeTrace:
    """Per-request layer figures of a traced ``serve-edit`` run: the
    served report's own numbers, and the same edit replayed through an
    in-process incremental workspace in a host process."""

    def __init__(self, ctx):
        self.host = HostClient(ctx.procs, ctx.tmp, "ref")
        self.values: Dict[str, List[float]] = {}

    def record(self, done: dict, size: int, roundtrip: float, paths: List[str]) -> None:
        report = done.get("report", {})
        inc = report.get("incremental", {})
        local = self.host.call(op="trace_edit", paths=paths)
        for name, value in (
            ("serve.roundtrip_ms", roundtrip * 1000),
            ("serve.server_ms", report.get("elapsed", 0) * 1000),
            ("serve.response_kb", size / 1024),
            ("serve.rechecked", inc.get("rechecked", 0)),
            ("serve.replayed", inc.get("replayed", 0)),
            ("workspace.incremental_check_ms", local["latency"] * 1000),
            ("cache.fingerprint_ms", local["ms"].get("fingerprint", 0.0)),
            ("edit.parse_ms", local["ms"].get("parse", 0.0)),
        ):
            self.values.setdefault(name, []).append(value)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        mean = {k: statistics.fmean(v) for k, v in self.values.items()}
        mean["serve.transport_ms"] = mean["serve.roundtrip_ms"] - mean["serve.server_ms"]
        units = {"serve.response_kb": "KB", "serve.rechecked": "count", "serve.replayed": "count"}
        order = ("serve.roundtrip_ms", "serve.server_ms", "serve.transport_ms",
                 "serve.response_kb", "serve.rechecked", "serve.replayed",
                 "workspace.incremental_check_ms", "cache.fingerprint_ms", "edit.parse_ms")
        return {k: (mean[k], units.get(k, "ms")) for k in order}


def run_serve_edit(ctx, trace: Optional[ServeTrace] = None) -> Dict[str, Tuple[float, str]]:
    project = ctx.project = Project(ctx)
    gen = HostClient(ctx.procs, ctx.tmp, "ref")
    gen.call(op="generate", specs=project.specs)
    gen.close()
    project.load()
    oracle = ServeOracle(ctx, project)
    oracle.reference()
    starts = 1 if trace else ctx.sizes.setup_starts or SETUP_STARTS["serve-edit"]
    setup: List[float] = []
    for i in range(starts):
        daemon = Daemon(ctx, f"d{i}")
        setup.append(daemon.setup_s)
        if not oracle.verify(daemon.first, None, ctx.tally):
            raise RuntimeError(f"first full check failed: {str(daemon.first)[:300]}")
        if i < starts - 1:
            daemon.close()
    pids = [daemon.proc.pid, daemon.worker_pid()]
    cpu_before = sum(proc_cpu_s(p) for p in pids)
    latencies: List[float] = []

    def op(edit):
        changed = project.apply(edit)
        ctx.tally.attempted += 1
        done, size, roundtrip = daemon.client.request("check", {"files": project.paths})
        if trace:
            trace.record(done, size, roundtrip, project.paths)
        if not oracle.verify(done, changed, ctx.tally):
            ctx.tally.failed += 1
            return
        latencies.append(roundtrip)

    rounds(project.round, ctx.seconds, 1 if trace else ctx.sizes.min_ops["serve-edit"], op)
    cpu = sum(proc_cpu_s(p) for p in pids) - cpu_before
    rss = sum(proc_peak_rss_kb(p) for p in pids)
    daemon.close()
    oracle.host.close()
    return end_to_end(setup, latencies, cpu, rss)


# ---------------------------------------------------------------- traced


def traced_check(ctx) -> Dict[str, Tuple[float, str]]:
    order = prepare_check(ctx)
    host = HostClient(ctx.procs, ctx.tmp, "check", order[0])
    oracle = CheckOracle()
    acc: Dict[str, List[float]] = {k: [] for k in ("untraced", "traced", "lex", "parse", "lower", "typecheck", "diags", "iters")}
    tokens = [0]

    def op(path):
        ctx.tally.attempted += 1
        reply = host.call(op="trace_check", path=path)
        if "exception" in reply or not oracle.verify(path, reply["units"], ctx.tally):
            ctx.tally.failed += 1
            return
        for key in ("untraced", "traced"):
            acc[key].append(reply[key] * 1000)
        for key in ("lex", "parse", "lower", "typecheck"):
            acc[key].append(reply["ms"].get(key, 0.0))
        acc["diags"].append(len(reply["units"][0]["diags"]))
        acc["iters"].append(reply["units"][0]["iterations"])
        tokens[0] += reply["tokens"]

    rounds(order[1:], ctx.seconds, 1, op)
    host.close()
    mean = {k: statistics.fmean(v) for k, v in acc.items()}
    return {
        "cfront.lex_ms": (mean["lex"], "ms"),
        "cfront.parse_ms": (mean["parse"], "ms"),
        "cfront.tokens_per_s": (tokens[0] / (sum(acc["lex"]) / 1000), "1/s"),
        "cil.lower_ms": (mean["lower"], "ms"),
        "checker.typecheck_ms": (mean["typecheck"], "ms"),
        "checker.diagnostics": (mean["diags"], "count"),
        "dataflow.iterations": (mean["iters"], "count"),
        "check.api_overhead_ms": (mean["traced"] - mean["parse"] - mean["lower"] - mean["typecheck"], "ms"),
        "check.trace_overhead_ms": (mean["traced"] - mean["untraced"], "ms"),
    }


def traced_prove(ctx) -> Dict[str, Tuple[float, str]]:
    warm, files = prove_inputs(random.Random(f"prove-{ctx.seed}"), ctx.tmp, ctx.sizes)
    host = HostClient(ctx.procs, ctx.tmp, "prove", warm)
    names = ("untraced", "traced", "parse_quals", "generate", "discharge", "obligations",
             "instances", "conflicts", "sat_ms", "euf_ms", "linarith_ms", "explain_ms", "quant_ms")
    acc: Dict[str, List[float]] = {k: [] for k in names}

    def op(item):
        path, pf = item
        ctx.tally.attempted += 1
        reply = host.call(op="trace_prove", path=path)
        if not verify_prove(pf, reply, ctx.tally):
            ctx.tally.failed += 1
            return
        for key in ("untraced", "traced"):
            acc[key].append(reply[key] * 1000)
        for key in ("parse_quals", "generate", "discharge"):
            acc[key].append(reply["ms"].get(key, 0.0))
        acc["obligations"].append(reply["calls"].get("discharge", 0))
        for key in ("instances", "conflicts", "sat_ms", "euf_ms", "linarith_ms", "explain_ms", "quant_ms"):
            acc[key].append(reply["prover"].get(key, 0))

    rounds(files, ctx.seconds, 1, op)
    host.close()
    mean = {k: statistics.fmean(v) for k, v in acc.items()}
    out = {
        "qualifiers.parse_ms": (mean["parse_quals"], "ms"),
        "soundness.generate_ms": (mean["generate"], "ms"),
        "prover.discharge_ms": (mean["discharge"], "ms"),
        "prover.obligations": (mean["obligations"], "count"),
        "prover.instances": (mean["instances"], "count"),
        "prover.conflicts": (mean["conflicts"], "count"),
    }
    for key in ("sat_ms", "euf_ms", "linarith_ms", "explain_ms", "quant_ms"):
        out[f"prover.{key}"] = (mean[key], "ms")
    out["prove.api_overhead_ms"] = (mean["traced"] - mean["parse_quals"] - mean["generate"] - mean["discharge"], "ms")
    out["prove.trace_overhead_ms"] = (mean["traced"] - mean["untraced"], "ms")
    return out


def traced_serve(ctx) -> Dict[str, Tuple[float, str]]:
    trace = ServeTrace(ctx)
    try:
        run_serve_edit(ctx, trace)
    finally:
        trace.host.close()
    return trace.metrics()


WORKLOADS = {
    "check-cold": (run_check_cold, traced_check),
    "prove-cold": (run_prove_cold, traced_prove),
    "serve-edit": (run_serve_edit, traced_serve),
}


# ------------------------------------------------------------------ main


class Context:
    def __init__(self, args, tmp: Path, procs: Processes):
        self.seed = args.seed
        self.seconds = args.seconds
        self.tmp = tmp
        self.procs = procs
        self.sizes = Sizes(args.smoke)
        self.tally = Tally()
        self.project: Optional[Project] = None


def run(args, tmp: Path, procs: Processes) -> dict:
    ctx = Context(args, tmp, procs)
    if args.trace:
        # Every traced run reports every layer: it replays each
        # workload's inputs, its own first, for a third of the time.
        ctx.seconds = args.seconds / 3
        names = [args.workload] + [w for w in WORKLOADS if w != args.workload]
        per_workload = {}
        for name in names:
            sub = tmp / name
            sub.mkdir()
            ctx.tmp = sub
            per_workload[name] = WORKLOADS[name][1](ctx)
        metrics = {}
        for name in WORKLOADS:
            metrics.update(per_workload[name])
    else:
        metrics = WORKLOADS[args.workload][0](ctx)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:11s} {name:32s} {value:14.4f} {unit}")
    print(f"{args.workload:11s} attempted={ctx.tally.attempted} failed={ctx.tally.failed} "
          f"oracle_mismatches={len(ctx.tally.mismatches)}")
    return {
        "correct": not ctx.tally.mismatches,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    procs = Processes()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_DEADLINE_S)
    try:
        result = run(args, tmp, procs)
    finally:
        signal.alarm(0)
        procs.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
