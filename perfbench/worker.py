"""Child process of the benchmark: set up ozcheck, then check files in a loop.

Started by ``run.py`` from the root of a checkout::

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py run MANIFEST SECONDS
    python3 perfbench/worker.py traced MANIFEST PASSES SPANS_OUT

Every mode first sets up as a fresh ``ozcheck`` process does (interpreter
start, import, parse table) and reports the monotonic time it was ready.
``probe`` stops there.  ``run`` first checks every file once with the output
discarded, as a warm-up, and reads the peak memory after it: what checking
the files takes without the copies this harness makes to judge the output.
Then it checks the manifest's files one at a time through ``ozcheck.cli.run``
with output kept in memory, in whole passes over the file list, until
SECONDS (warm-up included) have elapsed: a closed loop with one client.
A file's time is the fastest of its timed checks: on a shared machine other
tenants only ever add time, so the minimum is the estimate they disturb
least (the practice of Python's ``timeit``).  Successive passes run on each
CPU the process may use in turn, because on a shared host each virtual CPU
is slowed by other tenants at its own times.
``traced`` installs the spans of ``spans.py`` before the table is built and
checks exactly PASSES passes.  Every check's verdict is compared with the
generator's.  The last line of standard output is one JSON object.
"""
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class Discard:
    """A text stream that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def setup(traced: bool):
    """Import ozcheck from this checkout and build the parse table."""
    sys.path.insert(0, SRC)
    recorder = None
    if traced:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    from ozcheck import cli, object_z_grammar, oz_parse_table

    if not cli.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"worker: ozcheck was imported from {cli.__file__}, not {SRC}")
    return cli, object_z_grammar(), oz_parse_table(), recorder


def main(argv: list[str]) -> int:
    mode = argv[1]
    cli, grammar, table, recorder = setup(traced=mode == "traced")
    ready = time.monotonic()

    import json

    if mode == "probe":
        print(json.dumps({"ready": ready}))
        return 0

    import hashlib
    import io
    import resource
    import statistics

    import verdicts

    manifest_path = os.path.abspath(argv[2])
    with open(manifest_path, encoding="utf-8") as fh:
        files = json.load(fh)["files"]
    os.chdir(os.path.dirname(manifest_path))
    configs = [
        cli.RunConfig(inputs=[f["name"]], trace=f["trace"], format=f["format"],
                      locale=f["locale"], lenient_lexing=f["lenient"])
        for f in files
    ]
    seconds = float(argv[3]) if mode == "run" else None
    passes_wanted = int(argv[3]) if mode == "traced" else None

    best: list[float] = [float("inf")] * len(files)  # fastest check of each file
    checks = 0
    digests: dict[int, bytes] = {}  # of each file's first output, for the run's hash
    first_seen: dict[int, tuple[int, int]] = {}  # (length, hash()) of that output
    failures: list[dict] = []
    passes = 0
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    peak_rss_kb = 0
    if mode == "run":
        for cfg in configs:
            try:
                cli.run(cfg, stdout=Discard(), stderr=Discard())
            except Exception:  # counted when the timed passes check this file
                pass
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder:
        recorder.start_gc_accounting()
    while True:
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
        for i, (f, cfg) in enumerate(zip(files, configs)):
            out, err = io.StringIO(), io.StringIO()
            if recorder:
                recorder.file = i
            crash = status = None
            t0 = time.perf_counter()
            try:
                status = cli.run(cfg, stdout=out, stderr=err)
            except Exception as e:  # a crash is a failed check, not the end of the run
                crash = e
            t1 = time.perf_counter()
            best[i] = min(best[i], t1 - t0)
            checks += 1
            output = out.getvalue()
            cause = verdicts.failure(f, status, crash, output, err.getvalue())
            # Later checks are compared with the first through the str hash,
            # which is several times faster than encoding and hashing a trace
            # of tens of megabytes, so more checks fit into a run.
            seen = (len(output), hash(output))
            if i not in first_seen:
                first_seen[i] = seen
                digests[i] = hashlib.blake2b(output.encode("utf-8"), digest_size=16).digest()
            elif cause is None and seen != first_seen[i]:
                cause = "output differs from the first check of this file"
            if cause is not None:
                failures.append({"file": f["name"], "cause": cause})
            if recorder:
                recorder.finish_file(table, grammar)
        passes += 1
        if passes_wanted is not None:
            if passes >= passes_wanted:
                break
        elif time.perf_counter() - start >= seconds:
            break
    if recorder:
        recorder.stop_gc_accounting()

    best_ms = [t * 1000 for t in best]
    result = {
        "ready": ready,
        "passes": passes,
        "checks": checks,
        "files": len(files),
        "tokens": sum(f["tokens"] for f in files),
        "best_s": sum(best),
        "verdict_ms_p50": statistics.median(best_ms),
        "verdict_ms_p95": (statistics.quantiles(best_ms, n=20, method="inclusive")[18]
                           if len(best_ms) > 1 else best_ms[0]),
        "peak_rss_mb": peak_rss_kb / 1024,
        "failed": len(failures),
        "failures": failures[:50],
        "output_hash": hashlib.blake2b(
            b"".join(digests[i] for i in sorted(digests)), digest_size=16).hexdigest(),
    }
    if recorder:
        result["layers"] = recorder.metrics(table)
        recorder.write_spans(argv[4])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
