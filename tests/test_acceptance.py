"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
while running).  All tolerances are exact; nothing here is approximate.
"""

import io
import itertools
import json
import random
from contextlib import redirect_stdout

import pytest

from monoalg import (
    MonomialIdeal,
    analyze,
    betti_ideal,
    decompose,
    full_report,
    hilbert_verify,
    is_cohen_macaulay,
    is_normal,
    is_seminormal,
    validate,
)
from monoalg.cli import main
from monoalg.errors import NotHomogeneousError
from monoalg.sweep import random_simplicial_instance
from conftest import QUARTIC_GENS, QUINTIC_GENS, SEC3_GENS
from oracles import brute_cohen_macaulay, brute_normal, brute_seminormal


def _criterion(number, description, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def _random_instances(count=200, seed=20260809):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        inst = random_simplicial_instance(
            rng, rng.randint(1, 3), rng.randint(1, 5), rng.randint(0, 3))
        if inst is not None:
            out.append(inst)
    return out


def test_criterion_1_golden_decomposition():
    def body():
        dec = decompose(validate(SEC3_GENS))
        assert len(dec.summands) == 8
        units = sorted(s.shift for s in dec.summands if s.ideal.is_unit)
        assert units == sorted([(0, 0, 0), (3, 0, 1), (3, 2, 3), (0, 2, 2),
                                (1, 0, 3), (1, 2, 1), (2, 2, 4)])
        others = [s for s in dec.summands if not s.ideal.is_unit]
        assert len(others) == 1
        assert others[0].shift == (2, 0, 2)
        assert set(others[0].ideal.gens) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    _criterion(1, "worked example decomposes into the eight known summands",
               body)


def test_criterion_2_golden_numbers():
    def body():
        report = analyze(validate(SEC3_GENS))
        assert report.regularity == 2
        assert report.degree == 8
        assert report.codim == 4
        assert report.eg_bound == 4
        assert report.eg_holds is True
        assert report.depth == 1

    _criterion(2, "worked example: reg 2, degree 8, codim 4, bound 4, depth 1",
               body)


def test_criterion_3_golden_properties():
    def body():
        report = full_report(validate(SEC3_GENS))
        assert report.seminormal is False
        assert report.buchsbaum is True
        assert report.normal is False
        assert report.cohen_macaulay is False
        assert report.gorenstein is False

    _criterion(3, "worked example properties (F, F, F, T, F)", body)


def test_criterion_4_betti_fixture():
    def body():
        table = betti_ideal(
            MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert table.entries == {(0, 1): 3, (1, 2): 3, (2, 3): 1}
        assert table.regularity() == 1
        assert 3 - table.projective_dimension() == 1

    _criterion(4, "maximal ideal in three variables: reg 1, depth 1", body)


def test_criterion_5_oracle_equivalence():
    def check(gens):
        B = validate(gens)
        assert B.is_simplicial()
        dec = decompose(B)
        assert is_seminormal(B, dec)[0] == brute_seminormal(gens), gens
        assert is_normal(B, dec)[0] == brute_normal(gens), gens
        assert is_cohen_macaulay(B, dec)[0] == brute_cohen_macaulay(gens), gens

    def body():
        checked = 0
        # exhaustive in one dimension: entries <= 6, up to 4 generators
        values = [(v,) for v in range(1, 7)]
        for n in range(1, 5):
            for subset in itertools.combinations(values, n):
                check(list(subset))
                checked += 1
        # exhaustive two-dimensional slice: entries <= 3, up to 3 generators
        points = [(a, b) for a in range(4) for b in range(4) if (a, b) != (0, 0)]
        for n in range(1, 4):
            for subset in itertools.combinations(points, n):
                check(list(subset))
                checked += 1
        # seeded random sample of the full declared space
        rng = random.Random(5)
        pool = [(a, b) for a in range(7) for b in range(7) if (a, b) != (0, 0)]
        for _ in range(150):
            n = rng.randint(1, 4)
            check(rng.sample(pool, n))
            checked += 1
        assert checked > 700

    _criterion(5, "seminormal/normal/CM agree with brute-force oracles", body)


def test_criterion_6_hilbert_soundness():
    def body():
        for gens in (SEC3_GENS, QUARTIC_GENS):
            B = validate(gens)
            assert hilbert_verify(B, decompose(B), B.degree_functional(), 8)
        for inst in _random_instances():
            dec = decompose(inst)
            assert hilbert_verify(inst, dec, inst.degree_functional(), 8), \
                inst.generators

    _criterion(6, "degree counts match the decomposition up to t=8 "
                  "(fixtures and 200 random instances)", body)


def test_criterion_7_implications_and_bound():
    def body():
        for inst in _random_instances():
            dec = decompose(inst)
            props = full_report(inst, dec)
            if props.normal:
                assert props.seminormal, inst.generators
                assert props.cohen_macaulay, inst.generators
            if props.gorenstein:
                assert props.cohen_macaulay, inst.generators
            if props.cohen_macaulay:
                assert props.buchsbaum, inst.generators
            if any([props.seminormal, props.normal, props.cohen_macaulay,
                    props.buchsbaum, props.gorenstein]):
                report = analyze(inst, 0, dec)
                assert report.eg_holds, inst.generators

    _criterion(7, "implication chain and bound hold on the same 200 instances",
               body)


def test_criterion_8_derived_fixtures():
    def body():
        B23 = validate([(2,), (3,)])
        assert full_report(B23).gorenstein is True
        with pytest.raises(NotHomogeneousError):
            analyze(B23)

        B345 = validate([(3,), (4,), (5,)])
        rep = full_report(B345)
        assert rep.cohen_macaulay is True
        assert rep.gorenstein is False

        quintic = full_report(validate(QUINTIC_GENS))
        assert quintic.buchsbaum is False
        witness = quintic.witnesses["buchsbaum"]
        assert witness["kind"] == "ideal"
        assert set(witness["ideal"].gens) == {(2, 0), (0, 1)}
        assert str(witness["ideal"]) == "ideal(x_1^2, x_2)"

        quartic = analyze(validate(QUARTIC_GENS))
        assert quartic.regularity == 2 == quartic.eg_bound

    _criterion(8, "numerical and planar derived fixtures behave as computed",
               body)


def _capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_9_determinism(tmp_path):
    def body():
        fixtures = {
            "sec3": (SEC3_GENS, "analyze"),
            "quartic": (QUARTIC_GENS, "analyze"),
            "quintic": (QUINTIC_GENS, "analyze"),
            "numerical23": ([(2,), (3,)], "props"),
            "numerical345": ([(3,), (4,), (5,)], "props"),
            "free": ([(1, 0), (0, 1)], "analyze"),
        }
        for name, (gens, command) in fixtures.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(
                "\n".join(" ".join(str(e) for e in g) for g in gens) + "\n")
            runs = []
            for _ in range(2):
                verbose = ["--verbose"] if command == "analyze" else []
                code, out = _capture(
                    [command, "--input", str(path), "--json", *verbose])
                assert code == 0
                json.loads(out)  # well-formed
                runs.append(out.encode())
            assert runs[0] == runs[1], name
        sweep_args = ["sweep", "--count", "50", "--seed", "77", "--dim", "3",
                      "--gens", "5", "--max-entry", "4", "--json"]
        first = _capture(sweep_args)
        second = _capture(sweep_args)
        assert first == second and first[0] == 0

    _criterion(9, "byte-identical JSON across repeated runs and a 50-instance "
                  "sweep", body)
