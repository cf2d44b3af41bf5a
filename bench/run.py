#!/usr/bin/env python3
"""Run one casdrift benchmark workload and print its metrics.

    python3 bench/run.py --workload nernst --seed 1 --seconds 55 --trace 0

The workload repeats whole rounds of its fixed list of operations for
about ``--seconds``, checks every output, and prints one line per
metric (name, unit, value), the attempted and failed operation counts, and
last a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
spends half the time in traced rounds and half in plain ones and reports
the per-layer metrics, writing the spans to ``bench/out/``.  casdrift is
imported from ``src/`` next to this directory; without it the script exits
with code 2.  See README.md in this directory.
"""

import os

# one thread per process, fixed before numpy or scipy can be imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3

END_TO_END_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.self_s": "s",
    "config.build_ms": "ms",
    "thermo.points": "count",
    "thermo.sums_per_point": "count",
    "thermo.point_ms_p50": "ms",
    "lifshitz.sums": "count",
    "lifshitz.terms": "count",
    "lifshitz.terms_per_sum": "count",
    "lifshitz.term_ms": "ms",
    "lifshitz.evals_per_term": "count",
    "lifshitz.self_s": "s",
    "reflection.pair_calls": "count",
    "reflection.pair_s": "s",
    "reflection.bare.pair_us": "us",
    "reflection.cond.pair_us": "us",
    "reflection.drift.pair_us": "us",
    "spatial.nonlocal.pair_us": "us",
    "spatial.pair_s": "s",
    "spatial.pair_calls": "count",
    "materials.states_built": "count",
    "trace.overhead_s": "s",
}

# A fresh interpreter that imports casdrift and builds the workload's inputs;
# it prints the seconds that took.
_SETUP_PROBE = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build(sys.argv[4], int(sys.argv[5]), sys.argv[6] == "1", sys.argv[3])
print(repr(perf_counter() - t0))
"""


def setup_seconds(workload: str, seed: int, small: bool, samples: int) -> float:
    """Median over ``samples`` fresh interpreters of import plus input set-up."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH), str(OUT),
             workload, str(seed), "1" if small else "0"],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-800:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_rounds(wl, seconds: float, tracer=None):
    """Whole rounds within ``seconds``, at least one; (rounds, round span ids).

    Another round starts only while the mean round so far still fits, so a
    run lasts about ``seconds`` however long one round takes.
    """
    rounds, span_ids = [], []
    start = perf_counter()
    while True:
        span = tracer.open("bench.round") if tracer else None
        try:
            rounds.append(wl.round())
        finally:
            if span is not None:
                tracer.close(span)
                span_ids.append(span.id)
        elapsed = perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, span_ids


def measure(args, wl):
    """Run the workload; return (rounds, metrics dict name -> value)."""
    if not args.trace:
        rounds, _ = run_rounds(wl, args.seconds)
        wl.finish(rounds)
        # each operation's median over the rounds, then the median over the
        # round's operations: one median over all samples at once falls
        # between two operations and takes an extreme sample of each
        per_op = {}
        for op in (op for rnd in rounds for op in rnd.ops):
            per_op.setdefault(op.label, []).append(op.seconds)
        return rounds, {
            "wall_s": statistics.median(rnd.wall for rnd in rounds),
            "op_p50_ms": 1e3 * statistics.median(statistics.median(v) for v in per_op.values()),
            "setup_s": args.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        traced, round_ids = run_rounds(wl, args.seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    plain, _ = run_rounds(wl, args.seconds / 2.0)
    wl.finish(traced + plain)
    overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
    tracer.write(str(OUT / f"trace_{args.workload}_seed{args.seed}.jsonl"))
    return traced + plain, layer_metrics(tracer, round_ids, overhead)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig1", "nernst", "pressure_mixed", "pointwise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs and one set-up sample, for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "casdrift" / "__init__.py").is_file():
        print(f"run.py: casdrift sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    OUT.mkdir(exist_ok=True)
    try:
        args.setup_s = setup_seconds(args.workload, args.seed, args.small,
                                     1 if args.small else SETUP_SAMPLES)
    except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    import workloads

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.build(args.workload, args.seed, args.small, workdir)
        import casdrift

        if Path(casdrift.__file__).resolve().parent != (SRC / "casdrift").resolve():
            print(f"run.py: casdrift imported from {casdrift.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        wl.prepare()
        rounds, values = measure(args, wl)

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    ops = [op for rnd in rounds for op in rnd.ops]
    failed = [op for op in ops if op.failures]
    for op in failed[:10]:
        print(f"FAILED {op.label}: {'; '.join(op.failures)}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)}")
    for name, unit in units.items():
        print(f"{name} {unit} {values[name]!r}")
    print(f"attempted count {len(ops)}")
    print(f"failed count {len(failed)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
