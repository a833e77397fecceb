"""Contracts of the package's record types and of the CLI's start-up."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import monoalg
from monoalg import (
    SweepConfig,
    analyze,
    betti_ideal,
    decompose,
    full_report,
    validate,
)
from monoalg.cli import parse_input
from conftest import SEC3_GENS


def _records():
    B = validate(SEC3_GENS)
    dec = decompose(B)
    s = dec.summands[-1]
    return [parse_input("1 0\n0 1\n"), s.ideal, s, dec,
            betti_ideal(s.ideal), analyze(B, 0, dec), dec.frame.solver,
            full_report(B, dec), dec.frame, B.degree_functional(),
            SweepConfig(3, 5, 4, 1, 0), B.quotient()]


RECORDS = _records()


def test_every_record_is_listed():
    assert {type(r).__name__ for r in RECORDS} == {
        "InputDocument", "MonomialIdeal", "Summand", "Decomposition",
        "BettiTable", "RegularityReport", "SpanSolver", "PropertyReport",
        "Frame", "DegreeFunctional", "SweepConfig", "FiniteAbelianGroup"}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = None


def test_memo_is_not_part_of_equality():
    B = validate(SEC3_GENS)
    first, second = decompose(B), decompose(B)
    analyze(B, 0, first)
    assert set(first.tables) == {0} and second.tables == {}
    assert first == second
    assert hash(first) == hash(second)


def _loaded_by_cli_import(names: set[str]) -> str:
    # -S: the environment's site hooks may import these modules themselves
    src = Path(monoalg.__file__).resolve().parents[1]
    code = f"import sys, monoalg.cli; print(sorted({names!r} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    return proc.stdout


def test_cli_import_loads_no_dataclasses():
    # dataclasses also loads inspect; argparse and the package load no
    # pathlib
    assert _loaded_by_cli_import({"dataclasses", "inspect", "pathlib"}) == "[]\n"


def test_cli_import_loads_no_fractions():
    # frame coordinates are printed from integers; fractions would also
    # load decimal and numbers
    assert _loaded_by_cli_import({"fractions", "decimal", "numbers"}) == "[]\n"
