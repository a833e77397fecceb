import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import monoalg

from monoalg import (
    MonomialIdeal,
    decompose,
    hilbert_verify,
    validate,
)
from monoalg.decomposition import Decomposition, _compositions
from monoalg.errors import (
    InternalError,
    NotHomogeneousError,
    NotSimplicialError,
)
from monoalg.sweep import random_simplicial_instance
from conftest import NONSIMPLICIAL_GENS, SEC3_GENS


def unit_vectors(d):
    return {tuple(1 if i == k else 0 for i in range(d)) for k in range(d)}


class TestMonomialIdeal:
    def test_from_gens_minimalizes(self):
        ideal = MonomialIdeal.from_gens(2, [(1, 0), (1, 1), (2, 0), (0, 2)])
        assert ideal.gens == ((1, 0), (0, 2))

    def test_unit(self):
        assert MonomialIdeal.unit(3).is_unit
        assert not MonomialIdeal.unit(3).is_maximal

    def test_maximal(self):
        assert MonomialIdeal.from_gens(2, [(1, 0), (0, 1)]).is_maximal

    def test_contains(self):
        ideal = MonomialIdeal.from_gens(2, [(2, 0), (0, 1)])
        assert ideal.contains((2, 0))
        assert ideal.contains((3, 5))
        assert not ideal.contains((1, 0))

    def test_monomial_count_matches_enumeration(self):
        ideal = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 0, 2)])
        for total in range(7):
            direct = sum(1 for a in _compositions(total, 3)
                         if ideal.contains(a))
            assert ideal.monomial_count_in_degree(total) == direct

    def test_display(self):
        assert str(MonomialIdeal.unit(2)) == "ideal(1)"
        ideal = MonomialIdeal.from_gens(2, [(2, 0), (0, 1)])
        assert str(ideal) == "ideal(x_1^2, x_2)"


class TestDecomposeGolden:
    def test_example_summands(self, sec3):
        dec = decompose(sec3)
        assert dec.group_order == 8
        assert len(dec.summands) == 8
        unit_shifts = [s.shift for s in dec.summands if s.ideal.is_unit]
        assert sorted(unit_shifts) == sorted([
            (0, 0, 0), (3, 0, 1), (3, 2, 3), (0, 2, 2),
            (1, 0, 3), (1, 2, 1), (2, 2, 4)])
        nontrivial = [s for s in dec.summands if not s.ideal.is_unit]
        assert len(nontrivial) == 1
        assert nontrivial[0].shift == (2, 0, 2)
        assert set(nontrivial[0].ideal.gens) == unit_vectors(3)

    def test_free_semigroup(self):
        dec = decompose(validate([(1, 0), (0, 1)]))
        assert len(dec.summands) == 1
        only = dec.summands[0]
        assert only.ideal.is_unit
        assert only.shift == (0, 0)

    def test_quartic(self, quartic):
        dec = decompose(quartic)
        by_shift = {s.shift: s for s in dec.summands}
        assert set(by_shift) == {(0, 0), (3, 1), (1, 3), (2, 2)}
        for shift in [(0, 0), (3, 1), (1, 3)]:
            assert by_shift[shift].ideal.is_unit
        assert set(by_shift[(2, 2)].ideal.gens) == unit_vectors(2)
        assert set(by_shift[(2, 2)].gamma) == {(6, 2), (2, 6)}

    def test_not_simplicial(self):
        with pytest.raises(NotSimplicialError):
            decompose(validate(NONSIMPLICIAL_GENS))


class TestShiftDegrees:
    def test_example(self, sec3):
        dec = decompose(sec3)
        functional = sec3.degree_functional()
        degrees = [s.shift_degree for s in dec.summands]
        assert sorted(degrees) == [0, 1, 1, 1, 1, 1, 2, 2]
        maximal = [s for s in dec.summands if s.ideal.is_maximal]
        assert maximal[0].shift_degree == 1
        for s in dec.summands:
            assert s.shift_degree == functional.degree(s.shift)

    def test_free(self):
        B = validate([(1, 0), (0, 1)])
        assert [s.shift_degree for s in decompose(B).summands] == [0]

    def test_quartic(self, quartic):
        degrees = [s.shift_degree for s in decompose(quartic).summands]
        assert sorted(degrees) == [0, 1, 1, 1]

    def test_not_homogeneous(self):
        B = validate([(2,), (3,)])
        assert [s.shift_degree for s in decompose(B).summands] == [None, None]


class TestInvariants:
    def test_exponents_integral_and_nonnegative(self, sec3):
        dec = decompose(sec3)
        frame = dec.frame
        for s in dec.summands:
            shift_lam = frame.coordinates(s.shift)
            gens = set()
            for v in s.gamma:
                lam = frame.coordinates(v)
                diff = tuple(a - b for a, b in zip(lam, shift_lam))
                assert all(q.denominator == 1 and q >= 0 for q in diff)
                gens.add(tuple(int(q) for q in diff))
            assert gens == set(s.ideal.gens)

    def test_componentwise_min_zero(self, sec3, quartic, quintic):
        for B in (sec3, quartic, quintic):
            for s in decompose(B).summands:
                for k in range(s.ideal.num_vars):
                    assert min(g[k] for g in s.ideal.gens) == 0

    def test_antichain(self, sec3, quintic):
        for B in (sec3, quintic):
            for s in decompose(B).summands:
                gens = s.ideal.gens
                for a in gens:
                    for b in gens:
                        if a != b:
                            assert not all(x <= y for x, y in zip(a, b))

    def test_deterministic(self):
        assert decompose(validate(SEC3_GENS)) == decompose(validate(SEC3_GENS))

    def test_missed_coset_raises(self, sec3, monkeypatch):
        # (3, 0, 1) is alone in its coset, so dropping it leaves 7 of 8
        found = sec3.module_generator_cosets()
        monkeypatch.setattr(sec3, "module_generator_cosets", lambda: tuple(
            c for c in found if c[1][0][0] != (3, 0, 1)))
        with pytest.raises(InternalError):
            decompose(sec3)

    def test_missed_coset_raises_under_optimize(self):
        code = (
            "from monoalg import decompose, validate\n"
            "from monoalg.errors import InternalError\n"
            f"B = validate({SEC3_GENS!r})\n"
            "found = B.module_generator_cosets()\n"
            "B.module_generator_cosets = lambda: tuple(\n"
            "    c for c in found if c[1][0][0] != (3, 0, 1))\n"
            "try:\n"
            "    decompose(B)\n"
            "except InternalError:\n"
            "    print('raised')\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(monoalg.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env,
                              check=True)
        assert proc.stdout == "raised\n"

    def test_split_coset_raises(self, sec3, monkeypatch):
        # the two halves of one class keep its label
        found = sec3.module_generator_cosets()
        label, big = next(c for c in found if len(c[1]) > 1)
        fake = (tuple(c for c in found if c[0] != label)
                + ((label, big[:1]), (label, big[1:])))
        monkeypatch.setattr(sec3, "module_generator_cosets", lambda: fake)
        with pytest.raises(InternalError):
            decompose(sec3)

    def test_non_divisible_numerators_raise(self, sec3, monkeypatch):
        # (3, 0, 1) joins the class of 0; its frame numerators differ from
        # those of 0 by a non-multiple of the denominators
        found = sec3.module_generator_cosets()
        stray = next(c[1][0] for c in found if c[1][0][0] == (3, 0, 1))
        fake = tuple((label, members + (stray,))
                     if members[0][0] == (0, 0, 0) else (label, members)
                     for label, members in found)
        monkeypatch.setattr(sec3, "module_generator_cosets", lambda: fake)
        with pytest.raises(InternalError, match="not a multiple"):
            decompose(sec3)

    def test_summands_carry_search_numerators(self, sec3):
        frame = sec3.frame()
        for s in decompose(sec3).summands:
            assert s.gamma_numerators == tuple(frame.numerators(x)
                                               for x in s.gamma)
            assert s.shift_numerators == frame.numerators(s.shift)


class TestHilbertVerify:
    def test_example(self, sec3):
        dec = decompose(sec3)
        assert hilbert_verify(sec3, dec, sec3.degree_functional(), 6)

    def test_free(self):
        B = validate([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert hilbert_verify(B, decompose(B), B.degree_functional(), 10)

    def test_corrupted_decomposition_fails(self, sec3):
        dec = decompose(sec3)
        broken = Decomposition(dec.frame, dec.group_order,
                               dec.invariant_factors, dec.summands[:-1])
        assert not hilbert_verify(sec3, broken, sec3.degree_functional(), 6)

    def test_wrong_shift_degree_fails(self, sec3):
        # one degree off by one, every ideal and shift left as it is
        dec = decompose(sec3)
        bad = dataclasses.replace(dec.summands[-1],
                                  shift_degree=dec.summands[-1].shift_degree + 1)
        broken = dataclasses.replace(dec, summands=dec.summands[:-1] + (bad,))
        assert not hilbert_verify(sec3, broken, sec3.degree_functional(), 6)

    def test_not_homogeneous(self):
        B = validate([(2,), (3,)])
        with pytest.raises(NotHomogeneousError):
            hilbert_verify(B, decompose(B), B.degree_functional(), 4)

    def test_randomized_instances(self):
        rng = random.Random(1234)
        produced = 0
        while produced < 25:
            inst = random_simplicial_instance(
                rng, rng.randint(1, 3), rng.randint(1, 4), rng.randint(0, 3))
            if inst is None:
                continue
            produced += 1
            dec = decompose(inst)
            assert hilbert_verify(inst, dec, inst.degree_functional(), 8)
