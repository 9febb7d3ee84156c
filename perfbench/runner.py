"""Executes operations one at a time for ``run.py``, in lock step over pipes.

    python -m perfbench.runner cli    OUT_FILE SRC_DIR
    python -m perfbench.runner inproc OUT_FILE SRC_DIR
    python -m perfbench.runner traced OUT_FILE SRC_DIR SPANS_FILE

Each request is one JSON line on stdin and gets one JSON line on stdout.  The
operation's stdout goes to OUT_FILE (overwritten each time), so the caller
can check it after the timed region.

``cli`` runs ``python <args>`` as a child process, drains its stdout while it
runs (hashing it and writing it to OUT_FILE) and reports wall time and the
child's rusage from ``os.wait4``.  The runner is a separate small process
because Linux carries the parent's peak RSS into a forked child's
``ru_maxrss``; the checker's memory would otherwise show up as the CLI's.

``inproc`` calls ``enumtree.cli.main(argv)`` in this process with stdout
redirected to OUT_FILE; ``traced`` does the same with every public function
wrapped by ``perfbench.tracer`` and, at end of input, writes the spans to
SPANS_FILE and prints the aggregated counters.
"""

import hashlib
import io
import json
import os
import selectors
import subprocess
import sys
import time
import traceback

OP_TIMEOUT_S = 150.0
STDERR_KEEP = 1 << 16
PROBE_N = 60_000


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_N):
        acc += i * i % 7
    return time.perf_counter() - t0


def child_env(src_dir: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    env.pop("ENUMTREE_MAX_NODES", None)
    return env


def spawn(args: list[str], out_path: str, env: dict[str, str]) -> dict:
    """Run python with args; stream stdout to out_path; return the measurements."""
    digest = hashlib.sha256()
    nbytes = nlines = 0
    err = bytearray()
    timed_out = False
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        with open(out_path, "wb") as sink, selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            streams = 2
            while streams:
                wait = t0 + OP_TIMEOUT_S - time.perf_counter()
                events = sel.select(timeout=max(wait, 0.1))
                if not events and wait <= 0 and not timed_out:
                    proc.kill()
                    timed_out = True
                for key, _ in events:
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                        streams -= 1
                    elif key.fileobj is proc.stdout:
                        digest.update(chunk)
                        sink.write(chunk)
                        nbytes += len(chunk)
                        nlines += chunk.count(b"\n")
                    else:
                        err += chunk
                        del err[:-STDERR_KEEP]
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "bytes": nbytes,
        "lines": nlines,
        "sha256": digest.hexdigest(),
        "stderr": err.decode("utf-8", "replace"),
        "timed_out": timed_out,
    }


def _file_digest(path: str) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    return {
        "bytes": len(data),
        "lines": data.count(b"\n"),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def call_inproc(main, argv: list[str], out_path: str, run=None) -> dict:
    """main(argv) with stdout to out_path.  If given, run(call) makes the call
    through the zero-argument call and returns (rc, wall, extra fields)."""
    saved = sys.stdout, sys.stderr
    err = io.StringIO()
    extra = {}
    with open(out_path, "w", encoding="utf-8") as sink:
        sys.stdout, sys.stderr = sink, err
        try:
            if run is None:
                t0 = time.perf_counter()
                rc = _guarded(main, argv, err)
                wall = time.perf_counter() - t0
            else:
                rc, wall, extra = run(lambda: _guarded(main, argv, err))
        finally:
            sys.stdout, sys.stderr = saved
    return {"rc": rc, "wall_s": wall, **_file_digest(out_path),
            "stderr": err.getvalue()[-STDERR_KEEP:], **extra}


def _guarded(main, argv, err) -> int:
    # An exception escaping main would end the CLI process with exit code 1.
    try:
        return main(argv)
    except Exception:
        traceback.print_exc(file=err)
        return 1


def _serve(handle) -> None:
    for line in sys.stdin:
        reply = handle(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


def main(argv: list[str]) -> int:
    mode, out_path, src_dir = argv[:3]
    if mode == "cli":
        env = child_env(src_dir)
        _serve(lambda req: {"probe_s": probe(), **spawn(req["args"], out_path, env)})
        return 0
    sys.path.insert(0, src_dir)
    if mode == "inproc":
        import enumtree.cli

        _serve(lambda req: {"probe_s": probe(),
                            **call_inproc(enumtree.cli.main, req["argv"], out_path)})
        return 0
    from perfbench import tracer as tracing

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    import enumtree.cli

    def run(req):
        def timed(call):
            rc, wall, by_layer = tracer.run_op(req["op"], call)
            return rc, wall, {"self_by_layer": by_layer}

        return {"probe_s": probe(), **call_inproc(enumtree.cli.main, req["argv"], out_path, timed)}

    _serve(run)
    with open(argv[3], "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    summary = {
        "calls": tracer.calls,
        "self_s": tracer.self_s,
        "incl_s": tracer.incl_s,
        "counts": tracer.counts,
        "layer_of": tracer.layer_of,
        "spans": len(tracer.spans),
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
