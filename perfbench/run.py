"""The gradarg benchmark: seeded CLI workloads in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs one job after another in this process: each job is a
``gradarg.cli.main(argv)`` call on input files generated from the seed,
with stdout captured, parsed and compared against an answer computed off
the timed path (``reference.py``). The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 runs whole rounds of the workload's jobs for about S seconds
and reports the end-to-end metrics. --trace 1 runs each job of the
workload's first round once to warm up, then untraced and with spans
around the package's entry points (``tracing.py``), and reports
per-module metrics; the difference between the two is the tracing
overhead. Both write a record of the run, and the traced run its spans,
under ``perfbench/work/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SETUP_REPEATS = 5  # at least; a timed run repeats set-up after each round
# job_tail_ms percentile per workload: the highest multiple of 5 that
# keeps at least ten jobs beyond it at the smallest sample counts seen in
# 25 s runs on a 2-core host, 120, 90, 72 and 32 jobs (typical runs
# collect about 190, 160, 110 and 34)
TAIL_PERCENTILE = {"enum-search": 90, "rank-sweep": 85,
                   "kb-instantiate": 85, "large-sparse": 65}

PER_LAYER_SPANS = (
    "cli", "formats.parse", "framework.construct",
    "semantics.admissible", "semantics.complete", "semantics.grounded",
    "semantics.preferred", "semantics.stable",
    "ranking.absolute_grounded", "ranking.absolute_preferred",
    "ranking.absolute_stable", "ranking.contextual", "ranking.order",
    "postulates.battery", "postulates.corpus",
    "postulates.check_abstraction", "postulates.check_independence",
    "postulates.check_void_precedence",
    "postulates.check_unattacked_equivalence",
    "instantiate.parse_kb", "instantiate.subtheories",
    "instantiate.generate", "instantiate.defeat_graph",
    "instantiate.check", "instantiate.infer",
)
COUNTS = ("semantics.extensions", "ranking.classes",
          "instantiate.arguments", "instantiate.defeats")

perf_counter = time.perf_counter


# -- set-up ------------------------------------------------------------------


def import_gradarg():
    """Import the package from this checkout's sources, dropping any copy
    already imported so that every call pays the full import."""
    for name in [n for n in sys.modules
                 if n == "gradarg" or n.startswith("gradarg.")]:
        del sys.modules[name]
    gradarg = importlib.import_module("gradarg")
    importlib.import_module("gradarg.cli")
    if Path(gradarg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"gradarg imported from {gradarg.__file__}, "
                          f"not from {SRC}")
    return gradarg


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


class Setup:
    """Set-up of one run: import gradarg, generate the inputs and write
    them. ``once`` repeats it and times each repeat; ``seeds_ok`` checks
    that every repeat wrote byte-identical files and that the next seed
    generates different ones."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name, self.seed, self.workdir = name, seed, workdir
        self.times: list[float] = []
        self._digests: set[str] = set()

    def once(self):
        start = perf_counter()
        gradarg = import_gradarg()
        wl = workloads.build(self.name, self.seed)
        workloads.write(wl, self.workdir)
        self.times.append(perf_counter() - start)
        self._digests.add(digest({f: (self.workdir / f).read_bytes()
                                  for f in wl.files}))
        return wl, gradarg

    def seeds_ok(self) -> bool:
        other = workloads.build(self.name, self.seed + 1)
        other_digest = digest({f: t.encode() for f, t in other.files.items()})
        return len(self._digests) == 1 and other_digest not in self._digests


# -- jobs --------------------------------------------------------------------


def run_job(cli, argv: list[str]) -> tuple[float, int | None, str, str]:
    """One in-process CLI call: (seconds, exit code or None on a
    traceback, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a usage error this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return perf_counter() - start, code, out.getvalue(), err.getvalue()


def observed(job: workloads.Job, code: int | None, stdout: str) -> dict:
    """What a job printed, in the canonical form ``reference.py`` builds:
    the exit code plus the parsed envelope, or the parsed text ranking."""
    argv = job.argv
    if argv[argv.index("--output") + 1] == "text":
        classes, hasse = [], []
        for line in stdout.splitlines():
            head, _, rest = line.partition(" ")
            if rest.startswith("> "):
                hasse.append([int(head[1:-1]), int(rest[3:-1])])
            else:
                classes.append(rest.split(", "))
        return {"code": code, "classes": classes, "hasse": hasse}
    try:
        envelope = json.loads(stdout)
    except json.JSONDecodeError:
        return {"code": code, "stdout": stdout[:200]}
    if envelope.get("command") == "solve":
        # the witness explains a negative answer; only its presence is fixed
        envelope["witnesses"] = bool(envelope["witnesses"])
    return {"code": code, **envelope}


def answer_digest(answer: dict) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True)
                          .encode()).hexdigest()


class Record:
    """One finished job, reduced to what the check and the metrics need,
    so that large outputs are not kept alive."""

    __slots__ = ("job", "seconds", "code", "answer", "stderr")

    def __init__(self, job: workloads.Job, result) -> None:
        seconds, code, stdout, stderr = result
        self.job = job
        self.seconds = seconds
        self.code = code
        self.answer = answer_digest(observed(job, code, stdout))
        self.stderr = stderr[-300:]


def check(records: list[Record], wl: workloads.Workload,
          workdir: Path) -> list[dict]:
    """Failures: jobs whose canonical answer differs from the reference."""
    from reference import Reference  # NumPy loads only after the timing
    ref = Reference(wl, workdir)
    failures = []
    for rec in records:
        if rec.answer != answer_digest(ref.expected(rec.job)):
            failures.append({"argv": list(rec.job.argv), "code": rec.code,
                             "stderr": rec.stderr})
    return failures


# -- host drift probe --------------------------------------------------------


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop, median of five."""
    times = []
    for _ in range(5):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def host_probe() -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    commit = None  # a checkout without git metadata has no commit
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        commit = (git / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            ref = commit[5:]
            packed = git / "packed-refs"
            refs = dict(line.split()[::-1] for line in
                        packed.read_text().splitlines()
                        if line[:1] not in "#^") if packed.is_file() else {}
            commit = ((git / ref).read_text().strip()
                      if (git / ref).is_file() else refs.get(ref))
    sources = {p.name: p.read_bytes() for p in (SRC / "gradarg").glob("*.py")}
    return {"calib_ms": calibrate(), "loadavg": loadavg,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest(sources)}


# -- the two kinds of run ----------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def timed_run(args, wl, gradarg, workdir: Path, setup: Setup):
    records = []
    start = perf_counter()
    rounds = 0
    # Whole rounds only, so that every run measures the same mix; stop
    # when one more round would overshoot the budget by over half a round.
    # A set-up repeat follows each round, so that the set-up times sample
    # the host over the whole run rather than over its first second.
    while True:
        elapsed = perf_counter() - start
        if rounds and elapsed + elapsed / rounds / 2 > args.seconds:
            break
        records += [Record(job, run_job(gradarg.cli,
                                        workloads.resolve(job, workdir)))
                    for job in wl.rounds[rounds % len(wl.rounds)]]
        rounds += 1
        wl, gradarg = setup.once()
    while len(setup.times) < SETUP_REPEATS:
        setup.once()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check(records, wl, workdir)
    latencies = [r.seconds for r in records]
    q = TAIL_PERCENTILE[wl.name]
    metrics = {
        "setup_s": (statistics.median(setup.times), "s"),
        "jobs_per_s": (len(records) / sum(latencies), "1/s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_tail_ms": (percentile(latencies, q) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"jobs": len(records), "rounds": rounds,
             "seconds": perf_counter() - start, "tail_percentile": q,
             "beyond_tail": sum(x > percentile(latencies, q)
                                for x in latencies),
             "failed_ratio": len(failures) / len(records),
             "setup_times_s": setup.times}
    return records, failures, metrics, notes, latencies


def traced_run(args, wl, gradarg, workdir: Path, setup: Setup):
    from tracing import Tracer, instrument, micro
    while len(setup.times) < SETUP_REPEATS:
        wl, gradarg = setup.once()
    jobs = wl.rounds[0]
    tracer = Tracer()
    patches = instrument(tracer, gradarg)
    plain, traced = [], []
    # Each job runs once to warm up, then untraced and traced back to back
    # in alternating order, each time after a collection: host drift hits
    # both passes alike, and neither inherits the other's garbage or finds
    # the caches colder.
    for i, job in enumerate(jobs):
        argv = workloads.resolve(job, workdir)
        run_job(gradarg.cli, argv)
        tracer.job = i
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            gc.collect()
            patches.switch(traced_turn)
            try:
                if traced_turn:
                    traced.append(Record(job, tracer.run(
                        "cli", run_job, gradarg.cli, argv)))
                else:
                    plain.append(Record(job, run_job(gradarg.cli, argv)))
            finally:
                patches.switch(False)
    tracer.write(WORK / f"{wl.name}-s{args.seed}.spans.jsonl")
    untraced_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    self_ms = tracer.self_ms()
    metrics = {}
    for name in PER_LAYER_SPANS:
        key = "cli.self_ms" if name == "cli" else f"{name}_ms"
        metrics[key] = (self_ms.get(name, 0.0) / len(jobs), "ms")
    for name in COUNTS:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    for name, value in micro(gradarg, wl, args.seed).items():
        metrics[name] = (value, name.rsplit("_", 1)[1])
    # the median over jobs resists the host's second-to-second drift
    metrics["trace.overhead_pct"] = (100 * statistics.median(
        t.seconds / p.seconds - 1 for p, t in zip(plain, traced)), "%")
    records = plain + traced
    failures = check(records, wl, workdir)
    notes = {"jobs": len(jobs), "untraced_s": untraced_s,
             "traced_s": traced_s, "spans": len(tracer.spans),
             "setup_times_s": setup.times}
    return records, failures, metrics, notes, [r.seconds for r in plain]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-s{args.seed}"
    setup = Setup(args.workload, args.seed, workdir)
    try:
        wl, gradarg = setup.once()
    except ImportError as exc:
        print(f"error: cannot import gradarg: {exc}", file=sys.stderr)
        return 2
    host = host_probe()
    run = traced_run if args.trace else timed_run
    records, failures, metrics, notes, latencies = run(
        args, wl, gradarg, workdir, setup)
    seeds_ok = setup.seeds_ok()
    if args.trace:
        metrics["host.calib_ms"] = (host["calib_ms"], "ms")

    print(f"{wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(records)} jobs, {len(failures)} failed, "
          f"seed check {'ok' if seeds_ok else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.4f} {unit}")
    print("notes " + json.dumps({k: v for k, v in notes.items()
                                 if k != "setup_times_s"}))
    print("host " + json.dumps(host))
    for failure in failures[:5]:
        print("failed " + json.dumps(failure), file=sys.stderr)
    (WORK / f"{wl.name}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "host": host, "notes": notes,
                    "seeds_ok": seeds_ok, "failures": failures,
                    "metrics": {k: v for k, (v, _) in metrics.items()},
                    "latencies_s": latencies}, indent=1))
    print(json.dumps({
        "correct": not failures and seeds_ok,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
