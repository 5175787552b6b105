"""Pipeline benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {ingest,query,serve,edit} \\
        --seed N --seconds S --trace {0,1}

The run sets the workload up several times (the median is ``setup_s``),
warms it with one untimed round, then repeats timed rounds until
``--seconds`` have passed and at least 1000 operations were timed.  Every
round's outputs are checked against an independent oracle outside the
timing; a wrong answer or an exception is a failed operation.

All times are in reference-speed units (see ``refclock.py``); raw wall
figures are printed beside them for reference.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates traced
and untraced rounds and reports the per-layer metrics plus the tracing
overhead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
from pathlib import Path

HASH_SEED = "0"
SETUP_REPEATS = 3
#: A run stops after this many seconds of rounds even if it has not timed
#: enough operations; the p99 it reports is then unsupported (flagged).
HARD_STOP_S = 120.0

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest", "query", "serve", "edit")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_hash_seed() -> None:
    """Re-execute under a fixed ``PYTHONHASHSEED`` (set/dict order of str
    keys, and so some of the program's iteration orders, depend on it)."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The two CPUs of a small shared host change speed independently (while
    both are busy, one slows as the other speeds up), so a calibration run
    only describes work done on the CPU it ran on.  With the client, the
    server and its workers on one CPU, every calibration run describes the
    work around it.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {source}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent.parent != source.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {source}")
    return repro


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: {path} is missing")
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


def workload_class(name: str):
    if name == "ingest":
        from wl_ingest import IngestWorkload as cls
    elif name == "query":
        from wl_query import QueryWorkload as cls
    elif name == "serve":
        from wl_serve import ServeWorkload as cls
    else:
        from wl_edit import EditWorkload as cls
    return cls


def measure(workload, seconds: float, trace: bool):
    """Set up, warm, run timed rounds; return the raw figures of the run."""
    from common import MIN_OPS, instrument_parser
    from refclock import Meter
    from tracing import NULL, Tracer

    meter = Meter()
    tracer = Tracer() if trace else None
    setup_tracer = tracer if trace else NULL

    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.close()
        gc.collect()
        if trace:
            instrument_parser(tracer)
        try:
            _, chunk = meter.run(lambda: workload.setup(setup_tracer))
        finally:
            if trace:
                tracer.unpatch_all()
        setups.append(chunk)

    # Warm-up: one untimed round fills caches and finishes lazy builds.
    outputs = workload.run_round(0, meter, NULL)
    warm_failed, warm_wrong = workload.verify(0, outputs)
    meter.forget()
    # The set-up state lives for the whole run; keeping it out of the
    # collector's generations stops full collections from rescanning it
    # at random points of the timed rounds.
    gc.collect()
    gc.freeze()

    rounds = []
    started = time.perf_counter()
    index = 0
    while True:
        index += 1
        traced = trace and index % 2 == 1
        if traced:
            instrument_parser(tracer)
            workload.instrument(tracer)
        first = len(meter.chunks)
        try:
            outputs = workload.run_round(index, meter, tracer if traced else NULL)
        finally:
            if traced:
                tracer.unpatch_all()
        failed, wrong = workload.verify(index, outputs)
        rounds.append((meter.chunks[first:], traced, len(outputs), failed, wrong))
        elapsed = time.perf_counter() - started
        if trace:
            enough = len({t for _, t, *_ in rounds}) == 2
        else:
            enough = sum(n for _, _, n, _, _ in rounds) >= MIN_OPS
        enough = enough and elapsed >= seconds
        if enough or elapsed >= HARD_STOP_S:
            break

    extra = workload.finish()
    census = None
    if trace:
        from census import run_census

        census_tracer = Tracer()
        _, chunk = meter.run(
            lambda: run_census(census_tracer, workload.seed, workload.workdir, str(ROOT))
        )
        census = (census_tracer, chunk.factor)
    return {
        "setups": setups,
        "rounds": rounds,
        "extra": extra,
        "tracer": tracer,
        "census": census,
        "warm_wrong": warm_wrong,
        "warm_failed": warm_failed,
    }


def end_to_end(figures, factor_of=lambda chunk: chunk.factor):
    """Throughput and latency percentiles over the untraced rounds."""
    from refclock import median, percentile

    chunks = [c for chunks, traced, *_ in figures["rounds"] if not traced for c in chunks]
    latencies = sorted(
        value * factor_of(chunk) for chunk in chunks for value in chunk.latencies_s
    )
    busy = sum(chunk.wall_s * factor_of(chunk) for chunk in chunks)
    ops = len(latencies)
    return {
        "setup_s": median([c.wall_s * factor_of(c) for c in figures["setups"]]),
        "throughput_ops_s": ops / busy,
        "latency_p50_ms": percentile(latencies, 50.0) * 1000.0,
        "latency_p99_ms": percentile(latencies, 99.0) * 1000.0,
    }, ops


def tracing_overhead_pct(figures) -> float:
    """Extra reference time per operation in traced rounds, in percent."""
    per_op = {}
    for flag in (True, False):
        rounds = [(chunks, n) for chunks, traced, n, *_ in figures["rounds"] if traced is flag]
        busy = sum(c.ref_wall_s for chunks, _ in rounds for c in chunks)
        per_op[flag] = busy / sum(n for _, n in rounds)
    return (per_op[True] / per_op[False] - 1.0) * 100.0


def write_trace(tracer, workload: str, seed: int) -> Path:
    directory = ROOT / ".perfbench" / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}-seed{seed}.json"
    tracer.write(str(path))
    return path


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    pin_hash_seed()
    pin_to_one_cpu()
    spec = load_spec()
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from layers import per_layer_metrics
    from refclock import REFERENCE_SECONDS, median, tail_supported

    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workload_class(args.workload)(args.seed, str(workdir))
    try:
        figures = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(n for _, _, n, _, _ in figures["rounds"])
    failed = sum(f for _, _, _, f, _ in figures["rounds"])
    wrong = sum(w for *_, w in figures["rounds"]) + figures["warm_wrong"]
    ref, ops = end_to_end(figures)
    raw, _ = end_to_end(figures, factor_of=lambda chunk: 1.0)
    factors = [c.factor for chunks, *_ in figures["rounds"] for c in chunks]
    print(
        f"perfbench {args.workload} seed={args.seed} rounds={len(figures['rounds'])} "
        f"timed_ops={ops} attempted={attempted} failed={failed} "
        f"warmup_failed={figures['warm_failed']} "
        f"p99_supported={tail_supported(ops, 99.0)} "
        f"R={REFERENCE_SECONDS} median_factor={median(factors):.4f} "
        f"factor_range=[{min(factors):.4f},{max(factors):.4f}]"
    )
    for name in ref:
        print(f"  {name}: ref={ref[name]:.6g} raw_wall={raw[name]:.6g}")
    for name, value in figures["extra"].items():
        print(f"  {name}: {value:.6g}")

    if args.trace:
        tracer = figures["tracer"]
        scale = median([c.factor for chunks, traced, *_ in figures["rounds"] if traced for c in chunks])
        values = per_layer_metrics(tracer.spans, tracer.samples, tracer.counters, scale)
        census, factor = figures["census"]
        # Layers the workload does not exercise are read from the census.
        fill = per_layer_metrics(census.spans, census.samples, census.counters, factor)
        values = {name: value or fill[name] for name, value in values.items()}
        values["trace.overhead_pct"] = tracing_overhead_pct(figures)
        print(f"  trace written to {write_trace(tracer, args.workload, args.seed)}")
        declared = spec["per_layer"]
    else:
        values = dict(ref, **figures["extra"])
        declared = spec["end_to_end"]
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
