"""Command line: one measured run, ``run --sets K``, ``compare A B``.

::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py run --sets 10 --out a.json
    python3 benchmarks/e2e/run.py compare a.json b.json

The first form is what the driver calls; its last stdout line is the one
result object.  ``--corrupt N`` misreads N results on purpose and must make
the run fail — the proof that the output checks can.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

from . import spec
from .stats import quartiles, spread


def _single(args) -> int:
    from . import batch, harness, serve

    classes = {"batch_build": batch.BatchBuild, **serve.WORKLOADS}
    return harness.run(
        classes[args.workload], args.workload, args.seed, args.seconds,
        bool(args.trace), args.corrupt,
    )


def _sets(args) -> int:
    """Every workload ``--sets`` times, each run a fresh process and seed."""
    runner = Path(__file__).with_name("run.py")
    names = spec.workload_names()
    samples: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    for k in range(args.sets):
        for name in names:
            proc = subprocess.run(
                [
                    sys.executable, str(runner), "--workload", name,
                    "--seed", str(args.seed_base + k),
                    "--seconds", str(args.seconds), "--trace", "0",
                ],
                capture_output=True, text=True, cwd=spec.ROOT,
            )
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                print(f"{name} seed {args.seed_base + k}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, entry in result["metrics"].items():
                samples[name].setdefault(metric, []).append(entry["value"])
            # untraced runs print the calibration kernel in their report only
            calibrated = re.search(r"bench\.calibration_ms around each slice .* mean ([\d.]+)", proc.stdout)
            samples[name].setdefault("bench.calibration_ms", []).append(
                float(calibrated.group(1))
            )
            print(f"set {k + 1}/{args.sets} {name}: ok", file=sys.stderr)
    _print_sets(samples)
    if args.out:
        Path(args.out).write_text(json.dumps(samples, indent=1))
    return 0


def _print_sets(samples: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec.BENCHMARK["end_to_end"]}
    for name, metrics in samples.items():
        print(f"{name}")
        print(f"  {'metric':<46} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric, values in metrics.items():
            q1, q2, q3 = quartiles(values)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                if spread(values) > bound:
                    flag = "  > BOUND"
                elif spread(values) > bound / 3:
                    flag = "  > bound/3"
            print(
                f"  {metric:<46} {q2:12.4f} {q1:12.4f} {q3:12.4f} "
                f"{spread(values):8.1%} {'' if bound is None else format(bound, '6.0%')}{flag}"
            )


def _compare(args) -> int:
    """The choosing-metrics rule, per metric and workload.

    Worse than the bound -> regression.  Otherwise, when the parent's own
    spread is wider than the bound the runs cannot tell -> *unresolved*
    (not unchanged), unless every run of B reads better than every run of A.
    """
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    declared = spec.declared("end_to_end")
    regressions = 0
    for name in a:
        print(name)
        for metric, entry in declared.items():
            if metric not in a[name] or metric not in b.get(name, {}):
                continue
            va, vb = a[name][metric], b[name][metric]
            ma, mb = quartiles(va)[1], quartiles(vb)[1]
            lower = entry["better"] == "lower"
            worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
            all_better = (
                max(vb) < min(va) if lower else min(vb) > max(va)
            )
            if worse_by > entry["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif spread(va) > entry["bound"] and not all_better:
                verdict = "unresolved"
            elif all_better:
                verdict = "improved"
            else:
                verdict = "ok"
            print(
                f"  {metric:<16} A {ma:12.4f}  B {mb:12.4f}  worse by {worse_by:+7.1%} "
                f"(bound {entry['bound']:.0%}, A spread {spread(va):.1%})  {verdict}"
            )
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "run":
        parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py run")
        parser.add_argument("--sets", type=int, default=5)
        parser.add_argument("--seconds", type=float, default=spec.BENCHMARK["run_seconds"])
        parser.add_argument("--seed-base", type=int, default=0)
        parser.add_argument("--out", default="", help="write every sample as JSON")
        return _sets(parser.parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        return _compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, default=0,
                        help="misread this many results on purpose")
    return _single(parser.parse_args(argv))
