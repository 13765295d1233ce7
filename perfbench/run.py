"""The repository benchmark: run one workload, check its answers, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload backbone --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats the
timed phase with spans recorded around every layer and reports the
per-layer metrics (and the tracing overhead against the untraced phase).
The metric names, units and workloads are listed in ``BENCHMARK.json`` at
the root.  ``--all`` runs every workload, each in its own process.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every call
succeeded and the final report passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="the workload to run")
    target.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shorter streams, one set-up, one timed episode")
    return parser.parse_args(argv)


def _load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args: argparse.Namespace, definition: dict) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # needs the program's sources under src/

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    options = {}
    if args.smoke:
        workload = workload.shortened(16)
        options = {"min_episodes": 1, "setup_repeats": 1, "final_repeats": 2}
    result = workloads.run(workload, args.seed, args.seconds, trace=bool(args.trace), **options)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for key, value in result.notes.items():
        print(f"  {key} {value}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in result.problems:
        print(f"CORRECTNESS: {problem}")
    wanted = definition["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value, unit = result.metrics.get(entry["name"], (float("nan"), entry["unit"]))
        metrics[entry["name"]] = {"value": value if math.isfinite(value) else None, "unit": unit}
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


def run_all(args: argparse.Namespace, definition: dict) -> int:
    status = 0
    rows = []
    for entry in definition["workloads"]:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        status = status or completed.returncode
        lines = completed.stdout.strip().splitlines()
        if lines:
            rows.append((entry["name"], json.loads(lines[-1])))
    for name, result in rows:
        cells = [f"{k}={m['value']:.4g}" if m["value"] is not None else f"{k}=-"
                 for k, m in result["metrics"].items()]
        print(f"{name:10s} correct={result['correct']} " + " ".join(cells))
    return status


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The shard pool joins its workers on close; this also covers a pool
    left open by an error, and multiprocessing's resource tracker, which
    the ``spawn`` start method launches and which otherwise lingers for a
    while after this process exits.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        definition = _load_definition()
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args, definition)
    try:
        return run_one(args, definition)
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
