import json
from fractions import Fraction

from monoalg import MonomialIdeal, betti_ideal, decompose, full_report, validate
from monoalg.serialize import (
    canonical_json,
    decomposition_to_dict,
    jsonable,
    properties_text,
    property_report_to_dict,
)
from conftest import SEC3_GENS


def test_betti_triples_sorted():
    table = betti_ideal(
        MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert table.triples() == [(0, 1, 3), (1, 2, 3), (2, 3, 1)]


def test_jsonable_fractions_and_ideals():
    assert jsonable(Fraction(3, 2)) == "3/2"
    assert jsonable((Fraction(1, 2), 0)) == ["1/2", 0]
    out = jsonable({"ideal": MonomialIdeal.unit(2)})
    assert out["ideal"]["display"] == "ideal(1)"


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [2, 1]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [2, 1], "b": 1}


def test_decomposition_dict_round_trips_canonically():
    dec = decompose(validate(SEC3_GENS))
    doc = decomposition_to_dict(dec, verbose=True)
    coset_keys = [tuple(s["coset"]) for s in doc["summands"]]
    assert coset_keys == sorted(coset_keys)
    blob = canonical_json(doc)
    assert json.loads(blob) == json.loads(canonical_json(doc))


def test_witness_text_variants():
    # shift-phase failure: h + c lands back in the shift set
    report = full_report(validate([(6, 0), (0, 6), (1, 5), (4, 2)]))
    lines = "\n".join(properties_text(report))
    assert "buchsbaum: false" in lines
    assert "witness:" in lines and " + " in lines

    # tie failure for the pairing test
    report = full_report(validate([(3, 0), (0, 3), (1, 2), (2, 1)]))
    lines = "\n".join(properties_text(report))
    assert "maximal coordinate sum tied" in lines

    # unpaired element
    report = full_report(validate([(3,), (4,), (5,)]))
    lines = "\n".join(properties_text(report))
    assert "has no partner" in lines


def test_property_report_dict_drops_absent_witnesses():
    report = full_report(validate([(1, 0), (0, 1)]))
    doc = property_report_to_dict(report)
    assert doc["witnesses"] == {}
    assert doc["cohen_macaulay"] is True
