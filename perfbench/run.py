"""Run the serving benchmark: one workload, or all of them.

Run from the repository root::

    python3 perfbench/run.py --workload fresh-airq --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload prints its metrics by name and unit, the requests attempted,
completed and failed, the correctness verdict, a JSON report line (host,
load, percentiles, notes) and, last, the one-line JSON result.  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run.  ``--workload all`` runs each
workload of ``BENCHMARK.json`` in its own interpreter and prints a
summary.

The exit code is 0 for a correct run, 1 for a failed verdict or a crash,
and 2 when there is no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402  (the benchmark's own modules live beside this file)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    definition = spec.load()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(definition.workloads) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=definition.run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 config=None, setups: Optional[int] = None,
                 workdir: Optional[Path] = None) -> Dict[str, object]:
    """Set up, verify, time and check one workload; returns its outcome."""
    from layers import per_layer
    from measure import host_facts, host_ticks, load_average, median, tail
    from tracer import Tracer, wrapper_cost_seconds
    from workloads import SETUPS, WORKDIR, WORKLOADS

    workdir = Path(workdir or WORKDIR).resolve()
    report: Dict[str, object] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host_facts(), "load_before": load_average(),
    }
    tracer = None
    if trace:
        tracer = Tracer().install()
        tracer.handback_dir = workdir
        tracer.mark("setup")
    # the traced run reports no set-up time, so it sets up once
    setups = setups or (1 if trace else SETUPS)
    setup_times: List[float] = []
    workload = None
    try:
        for _ in range(setups):
            if workload is not None:
                workload.close()
            gc.collect()
            workload = WORKLOADS[name](seed, config, workdir)
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        if tracer:
            tracer.mark("verify")
        workload.verify()
        if tracer:
            tracer.mark("reference")
        workload.reference()
        gc.collect()
        if tracer:
            tracer.mark("timed")
        steal, ticks = host_ticks()
        workload.run_timed(seconds)
        steal_after, ticks_after = host_ticks()
        # share of the host's CPU time its hypervisor withheld meanwhile
        report["steal_share"] = (steal_after - steal) / max(
            ticks_after - ticks, 1)
        if tracer:
            tracer.mark("done")
        rss = workload.peak_rss_mb()
        nrmse = workload.nrmse()
    finally:
        if workload is not None:
            workload.close()
        if tracer:
            tracer.uninstall()
            tracer.collect()
        if workdir.is_dir() and not any(workdir.iterdir()):
            workdir.rmdir()
        report["load_after"] = load_average()

    ledger = workload.ledger
    latency, percentile, samples = tail(ledger.tail_samples)
    report.update({
        "setup_seconds": setup_times,
        "completed": workload.completed,
        "timed_wall_seconds": workload.wall,
        "latency_tail": {"percentile": round(percentile, 2),
                         "samples": samples, "of": workload.tail_unit},
        "notes": workload.notes,
        "violations": ledger.violations,
    })
    if trace:
        facts = workload.facts()
        facts["span_cost_s"] = wrapper_cost_seconds()
        metrics = per_layer(tracer, facts)
        report["absent"] = dict(tracer.missing)
        report["span_cost_us"] = facts["span_cost_s"] * 1e6
    else:
        metrics = {
            "throughput_rps": workload.completed / workload.wall,
            "latency_p50_ms": 1e3 * median(ledger.latencies),
            "latency_tail_ms": 1e3 * latency,
            "cpu_ms_per_req": 1e3 * workload.cpu / workload.completed,
            "nrmse": nrmse,
            "rss_mb": rss,
            "setup_s": median(setup_times),
        }
    correct = not ledger.violations and ledger.failed == 0
    definition = spec.load()
    names = definition.per_layer if trace else definition.end_to_end
    return {
        "result": {
            "correct": correct,
            "attempted": ledger.attempted,
            "failed": ledger.failed if correct else ledger.attempted,
            "metrics": {name: {"value": metrics[name],
                               "unit": definition.units[name]}
                        for name in names},
        },
        "report": report,
    }


def print_outcome(outcome: Dict[str, object]) -> None:
    result, report = outcome["result"], outcome["report"]
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={int(report['trace'])}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {metric['unit']}")
    if not report["trace"]:
        tail = report["latency_tail"]
        print(f"  latency_tail_ms is p{tail['percentile']} of "
              f"{tail['samples']} {tail['of']}")
    print(f"  requests: attempted {result['attempted']}, completed "
          f"{report['completed']} in the timed phase, failed "
          f"{result['failed']}")
    print(f"  verdict: {'correct' if result['correct'] else 'WRONG'}")
    for violation in report["violations"]:
        print(f"    {violation}")
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps(result))


def run_all(args: argparse.Namespace, root: Path) -> int:
    """Every workload, each in a fresh interpreter."""
    failed = False
    summary = []
    for name in spec.load().workloads:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        process = subprocess.run(command, cwd=root, capture_output=True,
                                 text=True)
        lines = process.stdout.strip().splitlines()
        print("\n".join(line for line in lines
                        if not line.startswith('{"report"')))
        if process.returncode != 0 or not lines:
            sys.stderr.write(process.stderr)
            failed = True
            continue
        summary.append((name, json.loads(lines[-1])))
    print("\nsummary")
    for name, result in summary:
        values = ", ".join(f"{key}={metric['value']:.4g}"
                           for key, metric in result["metrics"].items()
                           if metric["value"] is not None)
        print(f"  {name:13s} correct={result['correct']} {values}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {source}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    if args.workload == "all":
        return run_all(args, root)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print_outcome(outcome)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
