import random

import pytest

from monoalg import analyze, validate
from monoalg.errors import InvalidCharacteristicError
from monoalg.sweep import (
    SweepConfig,
    degree_points,
    random_simplicial_instance,
    run_sweep,
)
from oracles import _compositions, redundant_generators


class TestInstanceGeneration:
    def test_degree_points(self):
        assert degree_points(2, 3) == [(0, 3), (1, 2), (2, 1), (3, 0)]
        assert degree_points(1, 4) == [(4,)]
        for dim in range(1, 7):
            for degree in range(9):
                assert degree_points(dim, degree) == sorted(
                    _compositions(degree, dim))

    def test_instances_are_admissible(self):
        rng = random.Random(5)
        for _ in range(30):
            inst = random_simplicial_instance(rng, 3, 4, 2)
            assert inst is not None
            assert inst.is_simplicial()
            assert inst.is_homogeneous
            assert redundant_generators(inst.generators) == ()
            assert len(inst.generators) == 5

    def test_pool_exhaustion(self):
        rng = random.Random(0)
        # degree 1 leaves no non-frame points at all
        assert random_simplicial_instance(rng, 2, 1, 1) is None
        assert random_simplicial_instance(rng, 2, 1, 0) is not None


class TestRunSweep:
    def test_zero_count(self):
        summary = run_sweep(SweepConfig(3, 5, 4, 0, 1))
        assert summary["analyzed"] == 0
        assert summary["attempted"] == 0
        assert summary["eg_violations"] == []

    def test_seeded_determinism(self):
        cfg = SweepConfig(3, 5, 4, 40, 123)
        assert run_sweep(cfg) == run_sweep(cfg)

    def test_counts_add_up(self):
        summary = run_sweep(SweepConfig(2, 4, 3, 30, 9))
        assert summary["analyzed"] + summary["skipped"] == 30
        for count in summary["properties"].values():
            assert 0 <= count <= summary["analyzed"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(0, 3, 3, 1, 1))
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(3, 2, 3, 1, 1))
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(2, 3, 3, -1, 1))
        # checked even when every instance is skipped, or none is drawn
        for count, char in [(5, 4), (0, 4), (0, 2**31)]:
            with pytest.raises(InvalidCharacteristicError):
                run_sweep(SweepConfig(2, 3, 1, count, 0, char))


class TestExhaustiveSmallCase:
    def test_single_extra_point_never_violates_bound(self):
        # every semigroup built from the scaled 3-dim frame of degree 4
        # plus one more degree-4 point satisfies the bound
        frame = [(4, 0, 0), (0, 4, 0), (0, 0, 4)]
        extras = [p for p in degree_points(3, 4) if p not in frame]
        assert len(extras) == 12
        for p in extras:
            report = analyze(validate(frame + [p]))
            assert report.eg_holds, p
