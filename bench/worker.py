"""Serve CLI requests one at a time, in this interpreter or a fresh one.

As a module it gives ``serve``. As a script it is a fresh interpreter:

    python3 -I worker.py < JOB_JSON

where JOB_JSON is {"src": SRC_DIR, "warmups": [argv, ...], "requests":
[argv, ...]}. It imports assoc2.cli from SRC_DIR, serves the warm-ups and
reports the seconds that took as the set-up time, then serves the timed
requests. It prints one JSON object: setup_s (scaled by speed.py) and
raw_setup_s, the warm-up replies, the timed replies with their times
scaled by speed.py, and the process's own peak resident set in KiB.
"""

import io
import json
import os
import resource
import sys
import time
import traceback


def serve(cli, argvs, after=None) -> list:
    """[(exit code, stdout, ns, traceback or None)] for each argv, served
    by ``cli.main`` one after another. ``after`` is called with each
    request's nanoseconds, outside the timed region."""
    replies = []
    clock = time.perf_counter_ns
    real_out, real_err = sys.stdout, sys.stderr
    try:
        for argv in argvs:
            out = io.StringIO()
            sys.stdout, sys.stderr = out, io.StringIO()
            error = None
            start = clock()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit):
                code = None
                error = traceback.format_exc(limit=3)
            ns = clock() - start
            replies.append((code, out.getvalue(), ns, error))
            if after is not None:
                sys.stdout, sys.stderr = real_out, real_err
                after(ns)
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return replies


def peak_rss_kb() -> int:
    """This process's own peak resident set in KiB.

    VmHWM belongs to the address space made at exec. ru_maxrss is not used
    where VmHWM exists: Linux carries it over from the parent across fork
    and exec, so a worker would report the benchmark process's peak
    whenever that is the larger.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    # -I leaves this file's directory off the path
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from speed import SpeedLog

    job = json.load(sys.stdin)
    speed = SpeedLog()
    speed.begin()
    start = time.perf_counter_ns()
    sys.path.insert(0, job["src"])
    import assoc2.cli

    warm = serve(assoc2.cli, job["warmups"])
    setup_ns = time.perf_counter_ns() - start
    speed.after(setup_ns)
    (setup_scaled,) = speed.scaled([setup_ns])
    speed.begin()
    replies = serve(assoc2.cli, job["requests"], after=speed.after)
    print(json.dumps({
        "setup_s": setup_scaled / 1e9, "raw_setup_s": setup_ns / 1e9,
        "warmups": warm, "replies": replies,
        "scaled_ns": speed.scaled([r[2] for r in replies]),
        "peak_rss_kb": peak_rss_kb(), "module": assoc2.cli.__file__,
    }))


if __name__ == "__main__":
    main()
