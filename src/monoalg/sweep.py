"""Randomized sweeps hunting for violations of the regularity bound.

Instances are built simplicial and homogeneous by construction: the frame is
a scaled standard basis ``D*e_1, ..., D*e_d`` and the remaining generators
are distinct lattice points of coordinate sum ``D``, so every generator has
degree one under ``u -> sum(u)/D``.  Such generator sets are automatically
minimal (a degree-one element cannot be a sum of two or more).

Runs are reproducible from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .decomposition import decompose
from .homology import analyze
from .properties import full_report
from .semigroup import AffineSemigroup, Vec, vkey, validate


@dataclass(frozen=True)
class SweepConfig:
    ambient_dim: int
    num_generators: int
    max_entry: int
    count: int
    seed: int
    char: int = 0

    def check(self) -> None:
        for field in ("ambient_dim", "num_generators", "max_entry"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.num_generators < self.ambient_dim:
            raise ValueError("need at least one generator per frame ray")


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def degree_points(dim: int, degree: int) -> list[Vec]:
    """All lattice points in N^dim with coordinate sum ``degree``."""
    return sorted(_compositions(degree, dim))


def random_simplicial_instance(rng: random.Random, dim: int, degree: int,
                               extras: int) -> AffineSemigroup | None:
    """A random homogeneous simplicial semigroup, or ``None`` when fewer
    than ``extras`` non-frame degree points exist."""
    frame = [tuple(degree if i == k else 0 for i in range(dim))
             for k in range(dim)]
    pool = [p for p in degree_points(dim, degree) if p not in frame]
    if extras > len(pool):
        return None
    chosen = sorted(rng.sample(pool, extras), key=vkey)
    return validate(frame + chosen)


def _analyze_instance(semigroup: AffineSemigroup, char: int) -> dict:
    dec = decompose(semigroup)
    props = full_report(semigroup, dec)
    reg = analyze(semigroup, char, dec)
    return {
        "generators": [list(g) for g in semigroup.generators],
        "properties": {
            "seminormal": props.seminormal,
            "normal": props.normal,
            "cohen_macaulay": props.cohen_macaulay,
            "buchsbaum": props.buchsbaum,
            "gorenstein": props.gorenstein,
        },
        "regularity": reg.regularity,
        "degree": reg.degree,
        "codim": reg.codim,
        "eg_bound": reg.eg_bound,
        "eg_holds": reg.eg_holds,
        "depth": reg.depth,
    }


def run_sweep(cfg: SweepConfig) -> dict:
    cfg.check()
    rng = random.Random(cfg.seed)
    results = []
    skipped = 0
    for _ in range(cfg.count):
        degree = rng.randint(1, cfg.max_entry)
        extras = cfg.num_generators - cfg.ambient_dim
        instance = random_simplicial_instance(rng, cfg.ambient_dim, degree,
                                              extras)
        if instance is None:
            skipped += 1
        else:
            results.append(_analyze_instance(instance, cfg.char))

    property_counts = {name: 0 for name in
                       ("seminormal", "normal", "cohen_macaulay",
                        "buchsbaum", "gorenstein")}
    regs = []
    violations = []
    for res in results:
        for name in property_counts:
            if res["properties"][name]:
                property_counts[name] += 1
        regs.append(res["regularity"])
        if not res["eg_holds"]:
            violations.append(res)

    return {
        "config": {
            "ambient_dim": cfg.ambient_dim,
            "num_generators": cfg.num_generators,
            "max_entry": cfg.max_entry,
            "count": cfg.count,
            "seed": cfg.seed,
            "char": cfg.char,
        },
        "attempted": cfg.count,
        "analyzed": len(results),
        "skipped": skipped,
        "properties": property_counts,
        "regularity": {
            "min": min(regs) if regs else None,
            "max": max(regs) if regs else None,
        },
        "eg_violations": violations,
    }
