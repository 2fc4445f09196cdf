"""One benchmark interpreter: import braidops, then run the requests it is sent.

Usage: python3 perfbench/worker.py SRC_DIR

The worker imports ``braidops.cli`` from SRC_DIR first and writes ``ready`` on
stdout, so the parent can time set-up.  It then reads one JSON job from stdin:

    {"requests": [...], "warmup": bool, "passes": N | null, "seconds": S,
     "ref_clock": bool, "trace": bool, "spans_path": str | null, "outputs": bool}

and answers with one JSON line.  ``warmup`` runs the request list once,
untimed, before anything else.  ``passes: null`` repeats the request list
while another pass fits in ``seconds``, and at least MIN_TIMED_PASSES times.  ``ref_clock:
true`` times the untraced passes in reference seconds (see speed.py) as well
as in raw seconds.  ``trace: true`` adds one traced pass after the untraced
ones.

A request is {"argv": [...], "stdin": str | null, "stdin_from": i | null};
``stdin_from`` feeds the stdout of request i of the same pass.
"""

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.abspath(sys.argv[1]))
    import braidops.cli  # noqa: F401  (the set-up being timed)

    sys.stdout.write("ready\n")
    sys.stdout.flush()

import contextlib
import hashlib
import io
import json
import resource
import time

# two passes of cli-mix hold enough requests for at least 10 above req_p99_ms
MIN_TIMED_PASSES = 2


def plain_clock() -> tuple[float, float]:
    now = time.perf_counter()
    return now, now


def run_request(cli_run, req: dict, prior: list[str], clock) -> tuple[object, str, tuple]:
    """Run one CLI request in this interpreter; return (exit code, stdout, clock readings)."""
    if req.get("stdin_from") is not None:
        stdin = prior[req["stdin_from"]]
    else:
        stdin = req.get("stdin") or ""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_run(req["argv"])
            except Exception as exc:  # an escaped exception is a failed request
                rc = f"exception: {type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved
    end = clock()
    return rc, out.getvalue(), (end[0] - start[0], end[1] - start[1])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(requests: list[dict], keep_outputs: bool, clock=plain_clock) -> dict:
    """Run the requests once; times are reference seconds, ``raw_*`` raw seconds."""
    import braidops.cli as cli

    prior: list[str] = []
    codes, digests, latencies, raw_latencies = [], [], [], []
    start = clock()
    for req in requests:
        rc, out, (raw_s, ref_s) = run_request(cli.run, req, prior, clock)
        prior.append(out)
        codes.append(rc)
        digests.append(digest(out))
        latencies.append(ref_s)
        raw_latencies.append(raw_s)
    end = clock()
    result = {"wall_s": end[1] - start[1], "raw_wall_s": end[0] - start[0],
              "latencies": latencies, "raw_latencies": raw_latencies,
              "codes": codes, "digests": digests}
    if keep_outputs:
        result["outputs"] = prior
    return result


def main() -> None:
    job = json.loads(sys.stdin.readline())
    requests = job.get("requests", [])
    reply: dict = {"passes": []}
    if requests:
        if job.get("warmup"):
            run_pass(requests, False)
        passes = job.get("passes")
        deadline = time.perf_counter() + job.get("seconds", 0)
        clock = plain_clock
        if job.get("ref_clock"):
            import speed

            ref_clock = speed.RefClock()
            ref_clock.start()
            clock = ref_clock.read
        try:
            while True:
                if passes is not None and len(reply["passes"]) >= passes:
                    break
                record = run_pass(requests, job.get("outputs", False), clock)
                reply["passes"].append(record)
                if (passes is None and len(reply["passes"]) >= MIN_TIMED_PASSES
                        and time.perf_counter() + record["raw_wall_s"] > deadline):
                    break
        finally:
            if clock is not plain_clock:
                ref_clock.stop()
                reply["kernel_times"] = ref_clock.kernel_times
        reply["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if clock is not plain_clock:
            # the kernel's table was resident through every timed pass
            reply["rss_mb"] -= speed.TABLE_MB
        if job.get("trace"):
            import tracer

            t = tracer.Tracer()
            tracer.install(t)
            record = run_pass(requests, job.get("outputs", False))
            t.uninstall()
            reply["traced"] = record
            reply["summary"] = t.summary()
            if job.get("spans_path"):
                t.write_spans(job["spans_path"])
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
