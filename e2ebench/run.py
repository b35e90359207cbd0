#!/usr/bin/env python3
"""The VSS end-to-end benchmark: ingest, analytics and routed hot reads.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload analytics --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload hot_reads --seed 1 --seconds 20 --trace 1
    python3 e2ebench/run.py --workload ingest --repeat 5      # spread vs bounds
    python3 e2ebench/run.py --self-test                      # checks reject faults

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  See README.md.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

WORKLOADS = ("ingest", "analytics", "hot_reads")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=0,
        help="run the workload N times (seeds seed..seed+N-1) and print "
        "each metric's median, quartiles and spread against its bound",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="show that every output check rejects a corrupted answer",
    )
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import repro
    except ImportError as exc:
        print(
            f"e2ebench: cannot import the program from {ROOT / 'src'}: {exc}",
            file=sys.stderr,
        )
        return 2
    source = Path(repro.__file__).resolve()
    if not source.is_relative_to((ROOT / "src").resolve()):
        print(f"e2ebench: repro imported from {source}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        from selftest import self_test

        return self_test(ROOT / ".e2ebench")
    if args.repeat:
        return repeat(args)
    work = ROOT / ".e2ebench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=False)
    try:
        from runner import run_workload

        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work,
            ROOT / ".e2ebench" / "traces" / args.workload,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def repeat(args) -> int:
    """Run one workload N times in fresh processes; report the spread."""
    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    failed_shares = []
    for index in range(args.repeat):
        seed = args.seed + index
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        started = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - started
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        failed_shares.append(result["failed"] / result["attempted"])
        print(
            f"seed {seed}: {wall:.1f} s wall, {result['attempted']} ops, "
            + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ),
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"failed share per run: {sorted(set(failed_shares))}")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            mark = "ok" if spread <= bound / 3 else (
                "wide" if spread <= bound else "OVER"
            )
        print(
            f"{name:34s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
            f"{spread:8.3f} {bound if bound is not None else '-':>6} {mark}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
