"""assoc2 benchmark: drive the CLI in-process and check every answer.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller: one process, one thread,
the next request sent only after the previous one returns. With --trace 0
the last line of standard output is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced replay.
The line before it describes the run. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

from check import check  # noqa: E402
from speed import SpeedLog  # noqa: E402
from worker import serve  # noqa: E402
from workloads import WORKLOADS, generator  # noqa: E402

# Fresh interpreters a timed run starts; each gives one set-up sample.
SETUP_PROBES = 11
# Passes a traced replay covers: a fixed amount of work, so that the
# per-layer counts of one seed repeat exactly.
TRACE_PASSES = {"cli-mix": 3, "cli-mix-tall": 3, "search": 1}


class Tally:
    """Requests attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, requests, replies):
        for req, (code, out, _, error) in zip(requests, replies):
            self.attempted += 1
            reason = error or check(req, code, out)
            if reason:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"{' '.join(req.argv)}: {reason}")


class Fresh:
    """Serves requests in fresh interpreters (worker.py). Every worker
    imports assoc2.cli and serves the warm-ups first; that time is one
    set-up sample, and the first worker's warm-up replies are checked."""

    def __init__(self, warmups, tally):
        self.warmups, self.tally = warmups, tally
        self.setup_s, self.raw_setup_s = [], []
        self.peak_rss_kb = 0

    def serve(self, requests) -> tuple:
        """(replies, their times scaled by speed.py)."""
        job = json.dumps({"src": str(SRC),
                          "warmups": [r.argv for r in self.warmups],
                          "requests": [r.argv for r in requests]})
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "worker.py")], input=job,
            capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.splitlines()[-1])
        if Path(report["module"]).resolve().parent != SRC / "assoc2":
            raise RuntimeError(f"worker imported {report['module']}")
        if not self.setup_s:
            self.tally.add(self.warmups, report["warmups"])
        self.setup_s.append(report["setup_s"])
        self.raw_setup_s.append(report["raw_setup_s"])
        self.peak_rss_kb = max(self.peak_rss_kb, report["peak_rss_kb"])
        return report["replies"], report["scaled_ns"]

    def probe(self) -> None:
        """One more set-up sample."""
        self.serve([])


def time_metrics(setups, total, latencies) -> dict:
    """The timing metrics from set-up samples and request nanoseconds."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "req_per_s": (len(total) / (sum(total) / 1e9), "1/s"),
        "req_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "req_p99_ms": (statistics.quantiles(latencies, n=100,
                                            method="inclusive")[98] / 1e6,
                       "ms"),
    }


def timed_run(cli, gen, warmups, seconds, tally):
    """Serve whole passes until their requests add up to ``seconds``.

    A mix pass is served here, with set-up probes between requests at even
    steps of the run. Before the first, untimed, one pass is served in a
    fresh interpreter, whose peak resident set is peak_rss_mb; it also
    wakes the machine, which runs slow for about a second after idling.

    A search pass repeats the same census each time, so it is served
    twice, each time in a fresh interpreter that no cache survives into,
    and each request counts its faster timing: a single census is one long
    computation that the machine's slow phases would otherwise decide.
    Set-up probes run before, between and after the two servings.

    Every time is scaled by the reference timings around it (speed.py);
    the unscaled metrics are returned in the info.
    """
    fresh = Fresh(warmups, tally)
    speed = SpeedLog()
    tally.add(warmups, serve(cli, [r.argv for r in warmups]))
    if not gen.fresh_twice:
        requests = gen.next_pass()
        tally.add(requests, fresh.serve(requests)[0])
    budget_ns = seconds * 1e9
    served_ns = 0

    def after(ns):
        # probe i runs once i/SETUP_PROBES of the run has been served
        nonlocal served_ns
        served_ns += ns
        speed.after(ns)
        if len(fresh.setup_s) * budget_ns <= served_ns * SETUP_PROBES \
                and len(fresh.setup_s) < SETUP_PROBES:
            speed.sample()
            fresh.probe()
            speed.sample()

    between = (SETUP_PROBES - 2) // 3
    total, latencies, raw_total, raw_latencies = [], [], [], []
    search_s, graph_ms, pass_rate = [], [], []
    while served_ns < budget_ns:
        requests = gen.next_pass()
        if gen.fresh_twice:
            servings = []
            for _ in range(2):
                for _ in range(between):
                    fresh.probe()
                servings.append(fresh.serve(requests))
                tally.add(requests, servings[-1][0])
            (first, first_ns), (second, second_ns) = servings
            ns = [min(a, b) for a, b in zip(first_ns, second_ns)]
            raw = [min(a[2], b[2]) for a, b in zip(first, second)]
            served_ns += sum(r[2] for r in first + second)
        else:
            speed.begin()
            replies = serve(cli, [r.argv for r in requests], after=after)
            raw = [r[2] for r in replies]
            ns = speed.scaled(raw)
            tally.add(requests, replies)
        total += ns
        raw_total += raw
        latencies += [t for r, t in zip(requests, ns) if not r.quick]
        raw_latencies += [t for r, t in zip(requests, raw) if not r.quick]
        pass_rate.append(round(len(ns) / (sum(ns) / 1e9), 2))
        if requests[-1].command == "graph":  # a census, then graph
            search_s.append(sum(ns[:-1]) / 1e9)
            graph_ms.append(ns[-1] / 1e6)
    while len(fresh.setup_s) < SETUP_PROBES:
        fresh.probe()
    metrics = time_metrics(fresh.setup_s, total, latencies)
    metrics["peak_rss_mb"] = (fresh.peak_rss_kb / 1024, "MB")
    raw = time_metrics(fresh.raw_setup_s, raw_total, raw_latencies)
    info = {"requests": len(total), "latency_samples": len(latencies),
            "passes": len(pass_rate), "pass_req_per_s": pass_rate,
            "setup_repeats": len(fresh.setup_s),
            "setup_s_each": [round(t, 4) for t in fresh.setup_s],
            "unscaled": {name: value for name, (value, _) in raw.items()}}
    if search_s:
        info["search_s"] = statistics.median(search_s)
        info["graph_ms"] = statistics.median(graph_ms)
    return metrics, info


def traced_run(assoc2, gen, warmups, workload, tally):
    """Serve a fixed set of passes, each request once untraced and once
    traced, back to back in alternating order so that the machine's drift
    cancels out of the overhead. Traced replies must equal untraced ones."""
    from tracer import Tracer, per_layer_names

    cli = assoc2.cli
    tally.add(warmups, serve(cli, [r.argv for r in warmups]))
    requests = [req for _ in range(TRACE_PASSES[workload])
                for req in gen.next_pass()]
    tracer = Tracer()
    plain_ns = traced_ns = 0
    for rid, req in enumerate(requests):
        for traced in ((False, True) if rid % 2 else (True, False)):
            if traced:
                tracer.request = rid
                try:
                    tracer.install(assoc2)
                    (reply,) = serve(cli, [req.argv])
                finally:
                    tracer.restore()
                traced_ns += reply[2]
            else:
                (plain,) = serve(cli, [req.argv])
                plain_ns += plain[2]
        if reply[:2] != plain[:2] and reply[3] is None:
            reply = (*reply[:3], "traced reply differs from untraced reply")
        tally.add([req, req], [plain, reply])
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}.jsonl"
    tracer.write(str(spans_path))
    values = tracer.metrics()
    metrics = {name: (values[name], unit) for name, unit, _ in per_layer_names()}
    info = {"requests": len(requests), "passes": TRACE_PASSES[workload],
            "untraced_s": plain_ns / 1e9, "traced_s": traced_ns / 1e9,
            "trace_overhead_frac": traced_ns / plain_ns - 1,
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, info


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def import_package():
    """assoc2 from this checkout's src/, never from anywhere else."""
    if not (SRC / "assoc2" / "cli.py").is_file():
        raise SystemExit(f"error: no assoc2 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import assoc2
    import assoc2.cli
    if Path(assoc2.__file__).resolve().parent != SRC / "assoc2":
        raise SystemExit(f"error: imported assoc2 from {assoc2.__file__}")
    return assoc2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    assoc2 = import_package()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        gen = generator(args.workload, args.seed, str(workdir))
        warmups = gen.warmups()
        if args.trace:
            metrics, info = traced_run(assoc2, gen, warmups, args.workload,
                                       tally)
        else:
            metrics, info = timed_run(assoc2.cli, gen, warmups, args.seconds,
                                      tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "load": "closed loop, 1 caller",
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.reasons,
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
