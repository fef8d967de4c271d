"""Run one workload of the ozcheck benchmark and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload many-files-mixed --seed 1 --seconds 10 --trace 0

The workload's files are generated from the seed (``generate.py``) with the
verdict each must get.  With ``--trace 0`` one child process checks the files
in a closed loop for ``--seconds``, the set-up of a fresh process is timed
SETUP_PROBES times, half before and half after that child, on each CPU in
turn, and the end-to-end metrics are printed.  With
``--trace 1`` an untraced child runs for half the time, then a child with
spans around every layer (``spans.py``) checks the same passes; the
per-layer metrics are printed and the spans are written to
``perfbench/work/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
WORKER = HERE / "worker.py"
SETUP_PROBES = 16
DEADLINE_S = 170  # a run must end well inside the 180 s it is allowed

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ktok_s": "ktok/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


class Child:
    """One worker process, timed from just before it is started."""

    def __init__(self, started: float, *args: str, cpu: int | None = None):
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        self.started = time.monotonic()
        self.deadline = started + DEADLINE_S
        self.proc = subprocess.Popen([sys.executable, str(WORKER), *args],
                                     stdout=subprocess.PIPE, cwd=ROOT, text=True,
                                     preexec_fn=pin)

    def result(self) -> dict:
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise SystemExit("perfbench: a worker ran past the deadline")
        if self.proc.returncode != 0:
            raise SystemExit(f"perfbench: worker exited with {self.proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - self.started
        return result


def write_inputs(workload: str, seed: int) -> tuple[Path, int]:
    """Write the workload's files and manifest; returns (manifest, files)."""
    files = generate.WORKLOADS[workload](seed)
    directory = WORK / f"{workload}-{seed}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    for f in files:
        (directory / f.name).write_text(f.text, encoding="utf-8")
    manifest = [{k: v for k, v in asdict(f).items() if k != "text"} for f in files]
    path = directory / "manifest.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "files": manifest}), encoding="utf-8")
    return path, len(files)


def probes(started: float, n: int) -> list[float]:
    """Set-up times of n fresh processes, started on each CPU in turn."""
    cpus = sorted(os.sched_getaffinity(0))
    return [Child(started, "probe", cpu=cpus[i % len(cpus)]).result()["setup_s"]
            for i in range(n)]


def end_to_end(manifest: Path, seconds: int,
               started: float) -> tuple[dict, list, list]:
    setups = probes(started, SETUP_PROBES // 2)
    run = Child(started, "run", str(manifest), str(seconds)).result()
    setups += probes(started, SETUP_PROBES - SETUP_PROBES // 2)
    setups.append(run["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ktok_s": run["tokens"] / run["best_s"] / 1000,
        "verdict_ms_p50": run["verdict_ms_p50"],
        "verdict_ms_p95": run["verdict_ms_p95"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = [f"setup_s is the median of {len(setups)} process starts",
             f"{run['checks']} checks in {run['passes']} passes; verdict_ms_p50 and "
             f"verdict_ms_p95 are over the fastest check of each of {run['files']} files"]
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return metrics, [run], notes


def per_layer(manifest: Path, workload: str, seconds: int,
              started: float) -> tuple[dict, list, list]:
    plain = Child(started, "run", str(manifest), str(seconds / 2)).result()
    spans_path = WORK / f"spans-{workload}.jsonl"
    traced = Child(started, "traced", str(manifest), str(plain["passes"]),
                   str(spans_path)).result()
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
    overhead = (traced["best_s"] / plain["best_s"] - 1) * 100
    metrics["tracing.overhead_pct"] = {"value": overhead, "unit": "%"}
    notes = [f"both children made {plain['passes']} passes ({plain['checks']} checks)",
             f"spans written to {spans_path.relative_to(ROOT)}"]
    return metrics, [plain, traced], notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    if not (ROOT / "src" / "ozcheck" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ozcheck sources under {ROOT / 'src'}")

    manifest, n_files = write_inputs(args.workload, args.seed)
    try:
        if args.trace:
            metrics, runs, notes = per_layer(manifest, args.workload, args.seconds, started)
        else:
            metrics, runs, notes = end_to_end(manifest, args.seconds, started)
    finally:
        shutil.rmtree(manifest.parent, ignore_errors=True)

    attempted = sum(r["checks"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    hashes = {r["output_hash"] for r in runs}
    correct = failed == 0 and len(hashes) == 1

    print(f"workload {args.workload}, seed {args.seed}: {n_files} files, "
          f"{runs[-1]['tokens']} tokens per pass, "
          f"output hash {runs[-1]['output_hash']}")
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    print(f"  {'fail_ratio':40s} {failed / attempted:14.4f} ratio ({failed} of {attempted})")
    if len(hashes) > 1:
        print("  the children's outputs differ: " + ", ".join(sorted(hashes)))
    for r in runs:
        for fail in r["failures"]:
            print(f"  FAILED {fail['file']}: {fail['cause']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
