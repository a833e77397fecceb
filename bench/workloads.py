"""The benchmark's four workloads.

Each workload turns a seed into an endless stream of blocks of fresh inputs,
runs one op per input (the timed part), checks each op's output (untimed),
and, in a traced run, records counters and layer replays for a fixed window
of ops.  Every op builds its own objects from raw inputs, so memo caches
only save the reuse that the inputs really share.

Why these four:

* ``analyze_box``: the interactive "analyse my semigroup" use, one instance
  through the pipeline of ``monoalg analyze --json --verify``.  Module
  generator box enumeration dominates it.
* ``sweep_wide``: the bound-hunting sweep use, one ``run_sweep`` per op.
  Cone/lattice work and ``decompose`` dominate it.
* ``betti_ideals``: ``betti_ideal`` on random summand-shaped ideals, the one
  workload where homology dominates and inputs share nothing.
* ``cli_small``: one-shot ``python -m monoalg analyze`` subprocesses on small
  inputs, where interpreter start and import time dominate.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations, islice
from pathlib import Path
from typing import Callable, Iterator

from monoalg import (
    MonomialIdeal,
    SweepConfig,
    analyze,
    betti_ideal,
    decompose,
    full_report,
    hilbert_verify,
    run_sweep,
    validate,
)
from monoalg.cli import main as cli_main
from monoalg.serialize import (
    canonical_json,
    decomposition_to_dict,
    property_report_to_dict,
    regularity_report_to_dict,
    semigroup_to_dict,
)
from monoalg.sweep import random_simplicial_instance

from spans import NULL

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "sec3_analyze.json"
TMAX = 8
SEC3 = ((4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 0, 3), (0, 2, 2), (3, 0, 1),
        (1, 2, 1))

# children run the checkout's sources, single-threaded like the parent
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "MONOALG_THREADS"}
CHILD_ENV["PYTHONPATH"] = str(ROOT / "src")
ANALYZE_ARGS = ["analyze", "--json", "--verify", "--tmax", str(TMAX)]
CLI_ANALYZE = [sys.executable, "-m", "monoalg", *ANALYZE_ARGS]
SWEEP_GATE = [sys.executable, "-m", "monoalg", "sweep", "--json", "--count",
              "60", "--seed", "3", "--dim", "3", "--gens", "6",
              "--max-entry", "7"]


class CheckFailed(Exception):
    pass


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def child(cmd: list[str], stdin: bytes = b"") -> subprocess.CompletedProcess:
    return subprocess.run(cmd, input=stdin, capture_output=True,
                          env=CHILD_ENV, cwd=ROOT, timeout=120, check=False)


def wall_seconds(cmd: list[str]) -> float:
    start = time.perf_counter()
    proc = child(cmd)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: "
                           f"{proc.stderr.decode()[-300:]}")
    return elapsed


def as_text(gens) -> bytes:
    return "".join(" ".join(map(str, g)) + "\n" for g in gens).encode()


@cache
def golden() -> bytes:
    return GOLDEN.read_bytes()


# ---------------------------------------------------------------------------
# the analyze pipeline, one span per public call
# ---------------------------------------------------------------------------

def layers(gens, tr):
    """validate, cone and lattice, module generators, decompose, properties
    and homology (the whole ``analyze`` call, minimality check included)."""
    with tr.span("semigroup.validate"):
        semigroup = validate(gens)
    with tr.span("semigroup.lattice"):
        semigroup.group_basis
    with tr.span("semigroup.rays"):
        semigroup.extreme_rays()
    with tr.span("semigroup.frame"):
        semigroup.frame()
    with tr.span("semigroup.quotient"):
        semigroup.quotient()
    with tr.span("semigroup.grading"):
        semigroup.degree_functional()
    with tr.span("semigroup.modgens"):
        semigroup.module_generators()
    with tr.span("decomposition.decompose"):
        dec = decompose(semigroup)
    with tr.span("properties.report"):
        props = full_report(semigroup, dec)
    with tr.span("homology.betti"):
        reg = analyze(semigroup, 0, dec)
    return semigroup, dec, props, reg


@dataclass
class Report:
    semigroup: object
    dec: object
    verified: bool
    text: str


def analyze_request(gens, tr) -> Report:
    """What ``monoalg analyze --json --verify --tmax 8`` does for ``gens``."""
    semigroup, dec, props, reg = layers(gens, tr)
    with tr.span("decomposition.verify"):
        verified = hilbert_verify(semigroup, dec,
                                  semigroup.degree_functional(), TMAX)
    with tr.span("serialize"):
        doc = semigroup_to_dict(semigroup)
        doc["decomposition"] = decomposition_to_dict(dec)
        doc["properties"] = property_report_to_dict(props)
        doc["regularity"] = regularity_report_to_dict(reg)
        doc["hilbert_verify"] = {"t_max": TMAX, "ok": verified}
        text = canonical_json(doc)
    return Report(semigroup, dec, verified, text)


def check_report(gens, report: Report) -> None:
    require(report.verified, "hilbert_verify returned False")
    dec = report.dec
    require(len(dec.summands) == dec.group_order,
            "summand count differs from the group order")
    require(sum(len(s.gamma) for s in dec.summands)
            == len(report.semigroup.module_generators()),
            "summands do not partition the module generators")
    doc = json.loads(report.text)
    require(doc["generators"] == [list(g) for g in gens],
            "report does not echo the input generators")
    reg = doc["regularity"]
    require(reg["eg_bound"] == reg["degree"] - reg["codim"],
            "eg_bound is not degree - codim")
    require(reg["codim"] == len(gens) - len(doc["decomposition"]["frame"]),
            "codim is not the number of non-frame generators")


def lcm_points(gens) -> int:
    """Size of the lcm lattice: all componentwise maxima of generator sets."""
    lattice = set(gens)
    frontier = set(gens)
    while frontier:
        frontier = {tuple(map(max, a, g)) for a in frontier
                    for g in gens} - lattice
        lattice |= frontier
    return len(lattice)


def count_ideals(ideals, counts: Counter) -> None:
    distinct = set(ideals)
    counts["homology.ideals"] += len(ideals)
    counts["homology.distinct"] += len(distinct)
    counts["homology.lcm_points"] += sum(lcm_points(i.gens) for i in distinct)


def count_decomposition(semigroup, dec, counts: Counter) -> None:
    frame = set(dec.frame.elements)
    group = semigroup.quotient()
    counts["semigroup.box"] += math.prod(
        group.element_order(g) for g in semigroup.generators
        if g not in frame)
    counts["semigroup.modgens"] += len(semigroup.module_generators())
    nonunit = [s.ideal for s in dec.summands if not s.ideal.is_unit]
    counts["decomposition.summands"] += len(dec.summands)
    counts["decomposition.nonunit"] += len(nonunit)
    count_ideals(nonunit, counts)


def count_report(report: Report, counts: Counter) -> None:
    count_decomposition(report.semigroup, report.dec, counts)
    counts["serialize.bytes"] += len(report.text.encode())


# ---------------------------------------------------------------------------
# workload definition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    blocks: Callable[[int], Iterator[list]]  # seed -> blocks of fresh inputs
    run: Callable  # (input, tracer) -> output; the timed op
    items: Callable  # output -> items completed
    check: Callable  # (input, output) -> None, raises CheckFailed
    output: Callable  # (input, output) -> canonical bytes for the digest
    count: Callable  # (input, output, tracer, counts) -> None
    setup_blocks: int  # blocks generated before the first timed op
    window: int  # traced ops whose counters are reported
    digest_ops: int  # ops of seed 0 hashed by the digest gate
    tail_pct: float  # see run.tail
    children: bool = False  # peak RSS is the children's


def digest(wl: Workload, seed: int = 0) -> str:
    """sha256 of the canonical outputs of the first ops of ``seed``."""
    h = hashlib.sha256()
    inputs = (inp for block in wl.blocks(seed) for inp in block)
    for inp in islice(inputs, wl.digest_ops):
        out = wl.run(inp, NULL)
        wl.check(inp, out)
        h.update(wl.output(inp, out))
    return h.hexdigest()


# -- analyze_box --------------------------------------------------------------

# (dim, D, extras) -> the (box size, group order) of each instance of that
# family in a block.  The box is the product of the orders of the extra
# generators modulo D*Z^dim, the number of candidates module_generators
# walks; the group is the one they span modulo D*Z^dim, with one summand per
# element.  The two set most of an instance's cost, so fixing them makes
# every block do comparable work while the instances stay random.
BLOCK_SHAPES = {(4, 6, 6): ((11664, 216),),
                (3, 8, 5): ((4096, 64), (8192, 64), (16384, 64), (16384, 64),
                            (32768, 64), (32768, 64))}
# Op times then form one cluster per shape, each about +-30% wide; the
# (4, 6, 6) ones sit apart, above the rest.  With one op in seven from
# that family, the median falls inside the (3, 8, 5) box-16384 cluster and
# the p75 tail inside the box-32768 one, not in a gap between clusters,
# where a few ops more or less on either side would move it.


def box_size(gens, dim: int, degree: int) -> int:
    return math.prod(degree // math.gcd(degree, *g) for g in gens[dim:])


def group_order(gens, dim: int, degree: int) -> int:
    """Order of the subgroup of (Z/degree)^dim the extra generators span."""
    zero = (0,) * dim
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for a in frontier:
            for g in gens[dim:]:
                b = tuple((x + y) % degree for x, y in zip(a, g))
                if b not in seen:
                    seen.add(b)
                    new.append(b)
        frontier = new
    return len(seen)


def _shaped(rng, family, shapes, seen) -> Iterator[list]:
    """Rounds holding one unseen instance of ``family`` per entry of
    ``shapes``."""
    dim, degree, _ = family
    need = Counter(shapes)
    boxes = {box for box, _ in need}
    found: dict[tuple, list] = {shape: [] for shape in need}
    while True:
        while any(len(found[shape]) < k for shape, k in need.items()):
            gens = random_simplicial_instance(rng, *family).generators
            box = box_size(gens, dim, degree)
            if box not in boxes or gens in seen:
                continue
            shape = (box, group_order(gens, dim, degree))
            if shape in found:
                seen.add(gens)
                found[shape].append(gens)
        yield [found[shape].pop(0) for shape in shapes]


def box_blocks(seed: int) -> Iterator[list]:
    """Blocks of one instance per entry of ``BLOCK_SHAPES``: a (4, 6, 6)
    instance, then six (3, 8, 5) instances of growing box."""
    seen: set = set()
    rounds = [_shaped(random.Random(f"analyze_box:{seed}:{family}"), family,
                      shapes, seen)
              for family, shapes in BLOCK_SHAPES.items()]
    while True:
        yield [gens for r in rounds for gens in next(r)]


ANALYZE_BOX = Workload(
    name="analyze_box",
    blocks=box_blocks,
    run=analyze_request,
    items=lambda report: 1,
    check=check_report,
    output=lambda gens, report: report.text.encode(),
    count=lambda gens, report, tr, counts: count_report(report, counts),
    setup_blocks=4,
    window=14,
    digest_ops=7,
    tail_pct=75,
)


# -- sweep_wide ---------------------------------------------------------------

SWEEP = {"ambient_dim": 5, "num_generators": 10, "max_entry": 3}
SWEEP_COUNT = 6
# each op draws degrees 1, 2 and 3 twice each, in some order: it skips the
# two of degree 1, which have no non-frame points, and analyses two instances
# of degree 2 and two of degree 3, so that every op does comparable work
SWEEP_DEGREES = [1, 1, 2, 2, 3, 3]


def sweep_blocks(seed: int) -> Iterator[list]:
    """Blocks of four unseen sweep seeds whose draws have SWEEP_DEGREES."""
    rng = random.Random(f"sweep_wide:{seed}")
    seen: set = set()
    while True:
        block: list = []
        while len(block) < 4:
            value = rng.randrange(1 << 31)
            if value not in seen and sorted(
                    degree for degree, _ in sweep_instances(value)) \
                    == SWEEP_DEGREES:
                seen.add(value)
                block.append(value)
        yield block


def sweep_run(seed: int, tr) -> dict:
    with tr.span("sweep.run_sweep"):
        return run_sweep(SweepConfig(count=SWEEP_COUNT, seed=seed, **SWEEP))


def sweep_instances(seed: int):
    """The (degree, instance) pairs ``run_sweep`` draws for ``seed``; the
    instance is ``None`` if skipped."""
    rng = random.Random(seed)
    extras = SWEEP["num_generators"] - SWEEP["ambient_dim"]
    for _ in range(SWEEP_COUNT):
        degree = rng.randint(1, SWEEP["max_entry"])
        yield degree, random_simplicial_instance(rng, SWEEP["ambient_dim"],
                                                 degree, extras)


def sweep_check(seed: int, summary: dict) -> None:
    skipped = sum(inst is None for _, inst in sweep_instances(seed))
    require(summary["attempted"] == SWEEP_COUNT, "attempted is not count")
    require(summary["skipped"] == skipped,
            f"skipped {summary['skipped']}, expected {skipped}")
    require(summary["analyzed"] == SWEEP_COUNT - skipped,
            "analyzed + skipped is not count")
    p = summary["properties"]
    require(p["normal"] <= p["seminormal"]
            and p["normal"] <= p["cohen_macaulay"]
            and p["gorenstein"] <= p["cohen_macaulay"] <= p["buchsbaum"]
            <= summary["analyzed"],
            "property counts break normal => seminormal, CM and "
            "Gorenstein => CM => Buchsbaum")


def sweep_count(seed: int, summary: dict, tr, counts: Counter) -> None:
    counts["sweep.analyzed"] += summary["analyzed"]
    counts["sweep.skipped"] += summary["skipped"]
    # replay the same instances layer by layer; run_sweep time minus these
    # layer times is the sweep's own overhead
    with tr.span("replay"):
        for _, instance in sweep_instances(seed):
            if instance is not None:
                semigroup, dec, _, _ = layers(instance.generators, tr)
                count_decomposition(semigroup, dec, counts)


SWEEP_WIDE = Workload(
    name="sweep_wide",
    blocks=sweep_blocks,
    run=sweep_run,
    items=lambda summary: summary["analyzed"],
    check=sweep_check,
    output=lambda seed, summary: canonical_json(summary).encode(),
    count=sweep_count,
    setup_blocks=4,
    window=8,
    digest_ops=4,
    tail_pct=75,
)


# -- betti_ideals -------------------------------------------------------------

CHARS = (0, 32003)


def ideal_blocks(seed: int) -> Iterator[list]:
    """Summand-shaped ideals: 3-5 variables, 2-7 minimal generators (mostly
    2-4), exponents at most 4; characteristics alternate."""
    rng = random.Random(f"betti_ideals:{seed}")
    seen: set = set()
    index = 0
    while True:
        block = []
        while len(block) < 16:
            n = rng.choice((3, 4, 5))
            k = rng.choices(range(2, 8), weights=(3, 3, 3, 1, 1, 1))[0]
            gens = {tuple(rng.randint(0, 4) for _ in range(n))
                    for _ in range(k)}
            gens.discard((0,) * n)
            if not gens:
                continue
            ideal = MonomialIdeal.from_gens(n, gens)
            if len(ideal.gens) != k or ideal in seen:
                continue
            seen.add(ideal)
            block.append((ideal, CHARS[index % 2]))
            index += 1
        yield block


def betti_run(inp, tr):
    ideal, char = inp
    with tr.span("homology.betti"):
        return betti_ideal(ideal, char)


def codim(ideal: MonomialIdeal) -> int:
    """Height of a monomial ideal: the fewest variables meeting the support
    of every generator."""
    supports = [{k for k, e in enumerate(g) if e} for g in ideal.gens]
    for size in range(1, ideal.num_vars + 1):
        for cover in combinations(range(ideal.num_vars), size):
            if all(s.intersection(cover) for s in supports):
                return size
    raise CheckFailed("ideal has no vertex cover")


def betti_check(inp, table) -> None:
    """Checks that share no code with the homology module: the generator
    degrees, and the K-polynomial 1 - sum (-1)^i b_ij t^j of S/I, which
    vanishes at t = 1 to exactly the order codim(I) with a positive
    quotient (the multiplicity)."""
    ideal, _ = inp
    triples = table.triples()
    gen_degrees = Counter(sum(g) for g in ideal.gens)
    require({j: r for i, j, r in triples if i == 0} == dict(gen_degrees),
            "beta_0 is not the generator degrees")
    require(max(i for i, _, _ in triples) <= ideal.num_vars - 1,
            "projective dimension exceeds num_vars - 1")
    poly = [0] * (max(j for _, j, _ in triples) + 1)
    poly[0] = 1
    for i, j, r in triples:
        poly[j] -= (-1) ** i * r
    order = 0
    while order <= ideal.num_vars and sum(poly) == 0:
        # p = (1 - t) q with q_k = p_0 + ... + p_k
        poly = list(accumulate(poly[:-1]))
        order += 1
    require(order == codim(ideal) and sum(poly) > 0,
            f"K-polynomial vanishes to order {order} at t=1, codim is "
            f"{codim(ideal)}")


BETTI_IDEALS = Workload(
    name="betti_ideals",
    blocks=ideal_blocks,
    run=betti_run,
    items=lambda table: 1,
    check=betti_check,
    output=lambda inp, table: (f"{inp[1]} {inp[0].num_vars} {inp[0].gens} "
                               f"{table.triples()}\n").encode(),
    count=lambda inp, table, tr, counts: count_ideals([inp[0]], counts),
    setup_blocks=64,
    window=64,
    digest_ops=64,
    # p99.9 has only ~14 samples beyond it and spread 23% between seeds
    tail_pct=99,
)


# -- cli_small ----------------------------------------------------------------

def cli_blocks(seed: int) -> Iterator[list]:
    """sec3 then three unseen (3, 5, 3) instances, per block."""
    rng = random.Random(f"cli_small:{seed}")
    seen = {SEC3}
    while True:
        block = [SEC3]
        while len(block) < 4:
            gens = random_simplicial_instance(rng, 3, 5, 3).generators
            if gens not in seen:
                seen.add(gens)
                block.append(gens)
        yield block


def cli_run(gens, tr) -> subprocess.CompletedProcess:
    with tr.span("cli.request"):
        return child(CLI_ANALYZE, as_text(gens))


def cli_check(gens, proc) -> None:
    require(proc.returncode == 0, f"exit code {proc.returncode}: "
            f"{proc.stderr.decode()[-300:]}")
    if gens == SEC3:
        require(proc.stdout == golden(), f"sec3 report differs from {GOLDEN}")
    doc = json.loads(proc.stdout)
    require(doc["generators"] == [list(g) for g in gens],
            "report does not echo the input generators")
    require(doc["hilbert_verify"] == {"t_max": TMAX, "ok": True},
            "hilbert_verify did not pass")


def cli_inprocess(stdin: bytes) -> tuple[int, bytes]:
    """The same request through ``monoalg.cli.main`` in this process."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    try:
        with redirect_stdout(out):
            code = cli_main(ANALYZE_ARGS)
    finally:
        sys.stdin = saved
    return code, out.getvalue().encode()


def cli_count(gens, proc, tr, counts: Counter) -> None:
    with tr.span("replay"):
        # first, so that cli.inproc runs on an input this process has not
        # seen; the layer replay after it has seen it
        with tr.span("cli.inproc"):
            code, out = cli_inprocess(as_text(gens))
        report = analyze_request(gens, tr)
    count_report(report, counts)
    require(code == 0 and out == proc.stdout == report.text.encode(),
            "in-process and subprocess reports differ")


def cli_probes(repeats: int = 7) -> dict[str, float]:
    """Median wall time of a bare interpreter, and of importing monoalg.cli
    on top of it, in ms."""
    interp = [wall_seconds([sys.executable, "-c", "pass"])
              for _ in range(repeats)]
    imported = [wall_seconds([sys.executable, "-c", "import monoalg.cli"])
                for _ in range(repeats)]
    floor = sorted(interp)[repeats // 2]
    return {"cli.interp_ms": 1000 * floor,
            "cli.import_ms": 1000 * (sorted(imported)[repeats // 2] - floor)}


CLI_SMALL = Workload(
    name="cli_small",
    blocks=cli_blocks,
    run=cli_run,
    items=lambda proc: 1,
    check=cli_check,
    output=lambda gens, proc: proc.stdout,
    count=cli_count,
    setup_blocks=30,
    window=8,
    digest_ops=4,
    tail_pct=90,
    children=True,
)

WORKLOADS = {wl.name: wl for wl in (ANALYZE_BOX, SWEEP_WIDE, BETTI_IDEALS,
                                    CLI_SMALL)}
