"""Ring-property tests for simplicial semigroup rings.

All five tests are combinatorial conditions on one shared decomposition:

* seminormal: no module generator has a frame coordinate above 1;
* normal: no nonzero module generator has a frame coordinate at or above 1;
* Cohen-Macaulay: every summand ideal is the unit ideal;
* Buchsbaum: every summand ideal is unit or the full maximal ideal, and no
  shift of a maximal-ideal summand stays such a shift after adding a
  non-frame generator;
* Gorenstein: Cohen-Macaulay and the shifts pair up against the unique
  shift of maximal coordinate sum.

:func:`full_report` runs all five in one pass over the frame numerators that
each summand carries from the module-generator search and one over the
summand ideals, and stores nothing; the ``is_*`` functions read their verdict
off it.  Nothing here solves for coordinates again.  None of the tests
depends on the coefficient field.  Every negative answer has a witness, the
vkey-least of its kind, so witnesses are deterministic.
"""

from __future__ import annotations

from operator import add, ge, gt, sub
from typing import NamedTuple

from .decomposition import Decomposition, Summand, decompose
from .errors import InternalError
from .semigroup import AffineSemigroup, Frame, vkey


class PropertyReport(NamedTuple):
    seminormal: bool
    normal: bool
    cohen_macaulay: bool
    buchsbaum: bool
    gorenstein: bool
    witnesses: dict[str, object]


# the five properties, in report order
PROPERTY_NAMES = PropertyReport._fields[:-1]


def _lambda_verdict(hits: list[tuple], frame: Frame) -> tuple:
    # hits are (sum(x), x, numerators) triples, so the least is x's vkey-least
    if not hits:
        return True, None
    _, x, num = min(hits)
    return False, {"element": x, "lambda": frame.lambda_text(num)}


def _ideal_verdict(hits: list[Summand]) -> tuple:
    if not hits:
        return True, None
    s = min(hits, key=lambda s: vkey(s.shift))
    return False, {"coset": s.coset, "shift": s.shift, "ideal": s.ideal}


def _buchsbaum(semigroup: AffineSemigroup, dec: Decomposition,
               nonunit: list[Summand]) -> tuple:
    holds, witness = _ideal_verdict(
        [s for s in nonunit if not s.ideal.is_maximal])
    if not holds:
        return False, {"kind": "ideal", **witness}
    # every non-unit ideal is maximal now
    tops = sorted((s.shift for s in nonunit), key=vkey)
    top_set = set(tops)
    extras = sorted(set(semigroup.generators) - set(dec.frame.elements),
                    key=vkey)
    for h in tops:
        for c in extras:
            total = tuple(map(add, h, c))
            if total in top_set:
                return False, {"kind": "sum", "h": h, "c": c, "sum": total}
    return True, None


def _gorenstein(dec: Decomposition, cm: tuple) -> tuple:
    holds, witness = cm
    if not holds:
        return False, {"kind": "ideal", **witness}
    # all ideals unit, so the shifts are exactly the module generators
    shifts = sorted((s.shift for s in dec.summands), key=vkey)
    top_sum = max(map(sum, shifts))
    tied = [h for h in shifts if sum(h) == top_sum]
    if len(tied) > 1:
        return False, {"kind": "tie", "elements": tuple(tied)}
    # they pair up when the involution h -> tied[0] - h keeps them
    shift_set = set(shifts)
    for h in shifts:
        partner = tuple(map(sub, tied[0], h))
        if partner not in shift_set:
            return False, {"kind": "unpaired", "element": h, "partner": partner}
    return True, None


def full_report(semigroup: AffineSemigroup,
                dec: Decomposition | None = None) -> PropertyReport:
    """Run all five tests over one decomposition: one pass over its frame
    numerators, one over its summand ideals, then the Buchsbaum and
    Gorenstein follow-ups."""
    if dec is None:
        dec = decompose(semigroup)
    dens = dec.frame.denominators
    at = [(sum(x), x, num) for s in dec.summands
          for x, num in zip(s.gamma, s.gamma_numerators)
          if any(map(ge, num, dens))]
    above = [hit for hit in at if any(map(gt, hit[2], dens))]
    nonunit = [s for s in dec.summands if not s.ideal.is_unit]
    normal, cm = _lambda_verdict(at, dec.frame), _ideal_verdict(nonunit)
    # normality is read off the numerators and Cohen-Macaulayness off the
    # ideals; Hochster's theorem ties the two readings
    if normal[0] and not cm[0]:
        raise InternalError("normal => Cohen-Macaulay fails")
    holds, witnesses = zip(_lambda_verdict(above, dec.frame), normal, cm,
                           _buchsbaum(semigroup, dec, nonunit),
                           _gorenstein(dec, cm))
    return PropertyReport(*holds, dict(zip(PROPERTY_NAMES, witnesses)))


def _verdict(report: PropertyReport, name: str) -> tuple[bool, dict | None]:
    return getattr(report, name), report.witnesses[name]


def is_seminormal(semigroup: AffineSemigroup,
                  dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    """Seminormality: every module generator has frame coordinates <= 1."""
    return _verdict(full_report(semigroup, dec), "seminormal")


def is_normal(semigroup: AffineSemigroup,
              dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    """Normality: every nonzero module generator has frame coordinates < 1."""
    return _verdict(full_report(semigroup, dec), "normal")


def is_cohen_macaulay(semigroup: AffineSemigroup,
                      dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    """Cohen-Macaulay: every summand ideal is the unit ideal."""
    return _verdict(full_report(semigroup, dec), "cohen_macaulay")


def is_buchsbaum(semigroup: AffineSemigroup,
                 dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    return _verdict(full_report(semigroup, dec), "buchsbaum")


def is_gorenstein(semigroup: AffineSemigroup,
                  dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    return _verdict(full_report(semigroup, dec), "gorenstein")
