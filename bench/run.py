"""monoalg benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload analyze_box --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/`` and nothing is installed.  The run

1. compiles ``src/`` to ``.pyc`` and imports it (untimed warm-up);
2. sets up: imports ``monoalg.cli`` in a fresh interpreter and generates
   the first input blocks from ``--seed``;
3. runs one op after another, in blocks, until ``--seconds`` of op time
   have passed at the end of a block, checking each op's output outside
   the timed region.  Between blocks it sets up again at even steps of the
   op time, and reports the median of all set-ups as ``setup_s``;
4. runs the correctness gates: the sec3 CLI report against
   ``tests/golden/sec3_analyze.json``, the sha256 of a seeded ``sweep
   --json``, and the digest of this workload's first ops at seed 0, both
   pinned in ``bench/pins.json``;
5. prints a table and, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
   end-to-end metrics, ``--trace 1`` the per-layer ones.

In a traced run every other block of ops is traced, so the same run gives
the tracing overhead.  Spans go to ``.bench_out/spans_<workload>_<seed>.jsonl``.
The exit code is 0 only when every op and gate passed; without the
checkout's sources the run exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from itertools import chain, islice
from pathlib import Path

from spans import NULL, Tracer, span_seconds

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PINS = Path(__file__).resolve().with_name("pins.json")
LADDER = (99.9, 99, 95, 90, 75, 50)
SETUP_REPEATS = 11

# per-layer metric -> the spans whose mean self time per op it sums
LAYER_SPANS = {
    "semigroup.validate_ms": ("semigroup.validate",),
    "semigroup.cone_ms": ("semigroup.lattice", "semigroup.rays",
                          "semigroup.frame", "semigroup.quotient",
                          "semigroup.grading"),
    "semigroup.rays_ms": ("semigroup.rays",),
    "semigroup.quotient_ms": ("semigroup.quotient",),
    "semigroup.modgens_ms": ("semigroup.modgens",),
    "decomposition.decompose_ms": ("decomposition.decompose",),
    "decomposition.verify_ms": ("decomposition.verify",),
    "properties.report_ms": ("properties.report",),
    "homology.betti_ms": ("homology.betti",),
    "serialize.ms": ("serialize",),
    "cli.inproc_ms": ("cli.inproc",),
    "sweep.ms": ("sweep.run_sweep",),
}
COUNTERS = ("semigroup.box", "semigroup.modgens", "decomposition.summands",
            "decomposition.nonunit", "homology.ideals", "homology.distinct",
            "homology.lcm_points", "serialize.bytes", "sweep.analyzed",
            "sweep.skipped")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Side:
    """Ops run with the tracer either on or off."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.items = 0

    def items_per_s(self) -> float:
        busy = sum(self.latencies)
        return self.items / busy if busy else 0.0


class Setup:
    """Import ``monoalg.cli`` in a fresh interpreter and generate the first
    input blocks.  This runs once before the first op and again at even
    steps of the run's op time, so that ``setup_s``, the median, samples the
    machine over the whole run rather than one moment of it."""

    def __init__(self, wl, seed: int, seconds: float) -> None:
        self.wl, self.seed, self.seconds = wl, seed, seconds
        self.times: list[float] = []
        self.stream = self.once()

    def once(self):
        from workloads import wall_seconds
        start = time.perf_counter()
        wall_seconds([sys.executable, "-c", "import monoalg.cli"])
        blocks = self.wl.blocks(self.seed)
        pool = list(islice(blocks, self.wl.setup_blocks))
        self.times.append(time.perf_counter() - start)
        return chain(pool, blocks)

    def repeat(self, busy: float) -> None:
        """Set up again for each step of op time that ``busy`` has passed."""
        while (len(self.times) < SETUP_REPEATS
               and busy >= len(self.times) * self.seconds / SETUP_REPEATS):
            self.once()

    def median(self) -> float:
        self.repeat(math.inf)
        return statistics.median(self.times)


def measure(wl, setup, seconds, tracer):
    """Closed loop over the set-up's stream for ``seconds`` of op time;
    with a tracer, odd blocks are traced."""
    from workloads import CheckFailed
    sides = {False: Side(), True: Side()}
    counts: Counter = Counter()
    attempted = failed = window = 0
    busy = 0.0
    # untimed checks and replays must not hold the run for long
    deadline = time.perf_counter() + 3 * seconds + 60
    for block_no, block in enumerate(setup.stream):
        traced = tracer is not None and block_no % 2 == 1
        tr = tracer if traced else NULL
        for inp in block:
            attempted += 1
            tr.op = attempted
            out, error = None, None
            start = time.perf_counter()
            try:
                with tr.span("op"):
                    out = wl.run(inp, tr)
            except Exception:  # an op that raises is a failed op
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
            busy += elapsed
            sides[traced].latencies.append(elapsed)
            in_window = traced and window < wl.window
            window += in_window
            try:
                if error is not None:
                    raise CheckFailed(error)
                wl.check(inp, out)
                if in_window:
                    wl.count(inp, out, tracer, counts)
                sides[traced].items += wl.items(out)
            except Exception as exc:  # a failed check is a failed op
                failed += 1
                sys.stderr.write(f"op {attempted} failed on {inp!r}:\n"
                                 f"{exc}\n")
            if time.perf_counter() > deadline:
                return sides, counts, attempted, failed
        setup.repeat(busy)
        # a run ends on a whole block, so that every run does the same mix
        # of inputs; a traced run ends on a whole pair of blocks, one
        # untraced and one traced, so that both sides see the same mix
        if busy >= seconds and (tracer is None
                                or (traced and window >= wl.window)):
            return sides, counts, attempted, failed
    raise AssertionError("input stream ended")


def tail(latencies, pct):
    """The percentile ``pct`` or, if fewer than 10 samples lie beyond it,
    the highest lower one on the ladder that has 10; with the count beyond.

    Each workload fixes ``pct`` as the highest ladder percentile with at
    least 10 samples beyond it when the benchmark was introduced, so that a faster program
    is still compared at the same percentile."""
    xs = sorted(latencies)
    n = len(xs)
    for p in LADDER[LADDER.index(pct):]:
        rank = max(1, math.ceil(n * p / 100))
        if n - rank >= 10 or p == LADDER[-1]:
            return p, xs[rank - 1], n - rank
    raise AssertionError("ladder ends at the median")


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(wl, sides, setup_s, peak):
    side = sides[False]
    p, tail_s, beyond = tail(side.latencies, wl.tail_pct)
    metrics = {
        "items_per_s": side.items_per_s(),
        "latency_p50_ms": 1000 * statistics.median(side.latencies),
        "latency_tail_ms": 1000 * tail_s,
        "peak_rss_mb": peak,
        "setup_s": setup_s,
    }
    notes = {"latency_tail_ms": f"p{p:g}, {beyond} of {len(side.latencies)}"
                                " samples beyond",
             "peak_rss_mb": "children" if wl.children else "this process"}
    return metrics, notes


def per_layer(wl, sides, counts, tracer):
    from workloads import cli_probes
    self_times = tracer.self_times()
    metrics, notes = {}, {}
    for name, spans in LAYER_SPANS.items():
        ms = 0.0
        for span in spans:
            total, ops = self_times.get(span, (0.0, 0))
            ms += 1000 * total / ops if ops else 0.0
        metrics[name] = ms
        if not any(span in self_times for span in spans):
            notes[name] = "not called"
    for name in COUNTERS:
        metrics[name] = counts[name]
        notes[name] = f"total over the first {wl.window} traced ops"
    metrics["semigroup.modgens_yield"] = (
        counts["semigroup.modgens"] / counts["semigroup.box"]
        if counts["semigroup.box"] else 0.0)
    metrics["homology.reuse"] = (
        counts["homology.ideals"] / counts["homology.distinct"]
        if counts["homology.distinct"] else 0.0)

    probes = cli_probes() if wl.children else {}
    for name in ("cli.interp_ms", "cli.import_ms"):
        metrics[name] = probes.get(name, 0.0)
        if name not in probes:
            notes[name] = "not called"

    # the sweep's own overhead: run_sweep time minus the layer times of the
    # same instances replayed
    sweeps = tracer.durations("sweep.run_sweep")
    replayed = tracer.children_seconds("replay")
    overheads = [sweeps[op] - replayed.get(op, 0.0) for op in replayed
                 if op in sweeps]
    metrics["sweep.overhead_ms"] = (1000 * statistics.mean(overheads)
                                    if overheads else 0.0)
    if not overheads:
        notes["sweep.overhead_ms"] = "not called"

    untraced, traced = sides[False].items_per_s(), sides[True].items_per_s()
    metrics["trace.items_per_s_untraced"] = untraced
    metrics["trace.items_per_s_traced"] = traced
    metrics["trace.overhead_frac"] = 1 - traced / untraced if untraced else 0.0
    op_total, ops = self_times.get("op", (0.0, 0))
    metrics["trace.glue_ms"] = 1000 * op_total / ops if ops else 0.0
    op_s = statistics.mean(sides[True].latencies)
    metrics["trace.op_ms"] = 1000 * op_s
    # what the spans themselves cost, free of the noise between two sets
    # of different inputs that trace.overhead_frac carries
    metrics["trace.span_cost_frac"] = (
        tracer.spans_in("op") / ops * span_seconds() / op_s)
    return metrics, notes


def gates(wl, pins):
    """(name, passed, detail) for each correctness gate."""
    from workloads import (CLI_ANALYZE, SEC3, SWEEP_GATE, as_text, child,
                           digest, golden)
    results = []
    proc = child(CLI_ANALYZE, as_text(SEC3))
    results.append(("sec3_golden", proc.returncode == 0
                    and proc.stdout == golden(),
                    f"exit {proc.returncode}, {len(proc.stdout)} bytes"))
    proc = child(SWEEP_GATE)
    got = hashlib.sha256(proc.stdout).hexdigest()
    results.append(("sweep_sha256", proc.returncode == 0
                    and got == pins["sweep_sha256"], got))
    try:
        got = digest(wl)
    except Exception:  # a raising op fails the gate, it does not abort
        got = traceback.format_exc()
    results.append((f"digest_{wl.name}",
                    got == pins["workload_sha256"].get(wl.name), got))
    return results


def declared_units(path: Path, kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in json.loads(path.read_text())[kind]}


def environment() -> str:
    return (f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
            f"PYTHONHASHSEED {os.environ.get('PYTHONHASHSEED', 'unset')}, "
            "MONOALG_THREADS unset")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "monoalg" / "__init__.py").is_file():
        sys.stderr.write(f"error: no monoalg sources under {SRC}\n")
        return 2
    # one caller, no worker threads: run_sweep reads this variable
    os.environ.pop("MONOALG_THREADS", None)
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    wl = WORKLOADS[args.workload]
    pins = json.loads(PINS.read_text())

    setup = Setup(wl, args.seed, args.seconds)
    tracer = Tracer() if args.trace else None
    sides, counts, attempted, failed = measure(wl, setup, args.seconds,
                                               tracer)
    setup_s = setup.median()
    peak = peak_rss_mb(wl.children)
    if tracer is None:
        metrics, notes = end_to_end(wl, sides, setup_s, peak)
    else:
        metrics, notes = per_layer(wl, sides, counts, tracer)
        tracer.write(ROOT / ".bench_out"
                     / f"spans_{wl.name}_{args.seed}.jsonl")
    units = declared_units(ROOT / "BENCHMARK.json",
                           "per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise AssertionError(f"metrics {sorted(metrics)} differ from the "
                             f"declared ones {sorted(units)}")
    print(f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; {environment()}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:30} {value:14.6g} {units[name]}{note}")
    for name, passed, detail in gates(wl, pins):
        attempted += 1
        failed += not passed
        print(f"  gate {name}: {'ok' if passed else 'FAILED'} ({detail})")
    print(f"  {'failed_frac':30} {failed / attempted:14.6g} ratio"
          f"  ({failed} of {attempted} ops and gates)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
