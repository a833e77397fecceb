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
from itertools import combinations
from typing import NamedTuple

from .decomposition import decompose
from .homology import analyze, check_characteristic
from .properties import PROPERTY_NAMES, full_report
from .semigroup import AffineSemigroup, Vec, vkey, validate


class SweepConfig(NamedTuple):
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
        check_characteristic(self.char)


def degree_points(dim: int, degree: int) -> list[Vec]:
    """All lattice points in N^dim with coordinate sum ``degree``, in lex
    order: the gaps between ``dim - 1`` bars placed among ``degree`` stars."""
    end = (degree + dim - 1,)
    return [tuple(right - left - 1
                  for left, right in zip((-1,) + bars, bars + end))
            for bars in combinations(range(degree + dim - 1), dim - 1)]


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
    record = analyze(semigroup, char, dec)._asdict()
    del record["witnesses"]
    record["generators"] = [list(g) for g in semigroup.generators]
    record["properties"] = {name: getattr(props, name)
                            for name in PROPERTY_NAMES}
    return record


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
    regs = [res["regularity"] for res in results]
    return {
        "config": cfg._asdict(),
        "attempted": cfg.count,
        "analyzed": len(results),
        "skipped": skipped,
        "properties": {name: sum(res["properties"][name] for res in results)
                       for name in PROPERTY_NAMES},
        "regularity": {"min": min(regs, default=None),
                       "max": max(regs, default=None)},
        "eg_violations": [res for res in results if not res["eg_holds"]],
    }
