"""Show that the benchmark is steady, and pin its digests.

    python3 bench/prove.py spread [--workloads a,b] [--seeds 10] [--sets 1]
                                  [--first 1] [--seconds S] [--out FILE]
    python3 bench/prove.py counters --workload W [--seed 5] [--seconds S]
    python3 bench/prove.py pin

``spread`` runs each workload once per seed and reports, per end-to-end
metric, the interquartile range of the runs as a share of their median,
next to the metric's bound and a third of it.  With ``--sets 2`` it runs a
second set on the next seeds, taking turns with the first, and also
reports how far the second set's median moved from the first's; it fails
if a spread exceeds a third of its bound or a set's median is worse than
the first's by more than the bound.  ``counters`` makes two traced
runs at one seed and requires every exact counter to repeat.  ``pin``
writes the seed-0 digest of every workload to ``bench/pins.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(args) -> int:
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in CONTRACT["workloads"]]
    seconds = args.seconds or CONTRACT["run_seconds"]
    sets = [{"seeds": f"{args.first + k * args.seeds}-"
                      f"{args.first + (k + 1) * args.seeds - 1}",
             "workloads": {}} for k in range(args.sets)]
    steady = True
    for name in names:
        values: list[dict[str, list[float]]] = [{} for _ in sets]
        # the sets take turns, seed by seed, so that a slow drift of the
        # machine widens each set's spread instead of shifting one set
        for i in range(args.seeds):
            for k in range(args.sets):
                seed = args.first + k * args.seeds + i
                result = run(name, seed, seconds, 0)
                for metric, entry in result["metrics"].items():
                    values[k].setdefault(metric, []).append(entry["value"])
        for metric in CONTRACT["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            medians = []
            for k, found in enumerate(values):
                q1, median, q3 = statistics.quantiles(found[m], n=4)
                share = (q3 - q1) / median
                medians.append(median)
                ok = share <= bound / 3
                steady &= ok
                sets[k]["workloads"].setdefault(name, {})[m] = {
                    "median": median, "spread": share, "values": found[m]}
                print(f"{name:13} {m:16} set {k + 1} median {median:12.6g} "
                      f"spread {share:7.4f} bound {bound:5.3f} "
                      f"third {bound / 3:6.4f} {'ok' if ok else 'WIDE'}",
                      flush=True)
            for k in range(1, args.sets):
                shift = medians[k] / medians[0] - 1
                gain = shift if metric["better"] == "higher" else -shift
                ok = -gain <= bound
                steady &= ok
                print(f"{name:13} {m:16} set {k + 1} vs set 1 shift "
                      f"{shift:+.4f} {'ok' if ok else 'WORSE'}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"run_seconds": seconds, "sets": sets}, indent=1) + "\n")
    return 0 if steady else 1


def counters(args) -> int:
    seconds = args.seconds or CONTRACT["run_seconds"]
    first, second = (run(args.workload, args.seed, seconds, 1)["metrics"]
                     for _ in range(2))
    exact = [m["name"] for m in CONTRACT["per_layer"]
             if m["unit"] in ("count", "bytes")]
    differ = [name for name in exact
              if first[name]["value"] != second[name]["value"]]
    for name in exact:
        print(f"{args.workload:13} {name:24} {first[name]['value']:>10} "
              f"{second[name]['value']:>10}")
    if differ:
        print(f"counters differ between runs: {differ}")
        return 1
    return 0


def pin(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    path = BENCH / "pins.json"
    pins = json.loads(path.read_text())
    pins["workload_sha256"] = {name: workloads.digest(wl)
                               for name, wl in workloads.WORKLOADS.items()}
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workloads")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--out")
    p = sub.add_parser("counters")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--seconds", type=float)
    sub.add_parser("pin")
    args = parser.parse_args()
    return {"spread": spread, "counters": counters, "pin": pin}[
        args.command](args)


if __name__ == "__main__":
    sys.exit(main())
