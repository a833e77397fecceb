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

The tests share one pass over the frame numerators that each summand carries
from the module-generator search and one over the summand ideals, made once
per decomposition; nothing here solves for coordinates again.  None of the
tests depends on the coefficient field.  Every negative answer has a
witness, the vkey-least of its kind, so witnesses are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, ge, gt, sub
from typing import NamedTuple

from .decomposition import Decomposition, Summand, decompose
from .errors import InternalError
from .semigroup import AffineSemigroup, vkey


# the five properties, in report order; the ``PropertyReport`` field names
PROPERTY_NAMES = ("seminormal", "normal", "cohen_macaulay", "buchsbaum",
                  "gorenstein")


class PropertyReport(NamedTuple):
    seminormal: bool
    normal: bool
    cohen_macaulay: bool
    buchsbaum: bool
    gorenstein: bool
    witnesses: dict[str, object]


def _dec(semigroup: AffineSemigroup, dec: Decomposition | None) -> Decomposition:
    return dec if dec is not None else decompose(semigroup)


def _scan(dec: Decomposition) -> tuple:
    # one pass over the frame numerators and one over the summand ideals,
    # kept in dec.scans: four verdicts (see below) and the non-unit summands
    found = dec.scans.get(_scan)
    if found is None:
        dens = dec.frame.denominators
        at = [(x, num) for s in dec.summands
              for x, num in zip(s.gamma, s.gamma_numerators)
              if any(map(ge, num, dens))]
        above = [hit for hit in at if any(map(gt, hit[1], dens))]
        nonunit = [s for s in dec.summands if not s.ideal.is_unit]
        odd = [s for s in nonunit if not s.ideal.is_maximal]
        found = dec.scans.setdefault(_scan, (
            _lambda_verdict(at, dens), _lambda_verdict(above, dens),
            _ideal_verdict(nonunit), _ideal_verdict(odd), nonunit))
    return found


def _lambda_verdict(hits: list[tuple], dens: tuple[int, ...]) -> tuple:
    if not hits:
        return True, None
    x, num = min(hits, key=lambda hit: vkey(hit[0]))
    return False, {"element": x, "lambda": tuple(map(Fraction, num, dens))}


def _ideal_verdict(hits: list[Summand]) -> tuple:
    if not hits:
        return True, None
    s = min(hits, key=lambda s: vkey(s.shift))
    return False, {"coset": s.coset, "shift": s.shift, "ideal": s.ideal}


def is_seminormal(semigroup: AffineSemigroup,
                  dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    """Seminormality: every module generator has frame coordinates <= 1."""
    return _scan(_dec(semigroup, dec))[1]


def is_normal(semigroup: AffineSemigroup,
              dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    """Normality: every nonzero module generator has frame coordinates < 1."""
    return _scan(_dec(semigroup, dec))[0]


def is_cohen_macaulay(semigroup: AffineSemigroup,
                      dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    """Cohen-Macaulay: every summand ideal is the unit ideal."""
    return _scan(_dec(semigroup, dec))[2]


def is_buchsbaum(semigroup: AffineSemigroup,
                 dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    dec = _dec(semigroup, dec)
    (holds, witness), nonunit = _scan(dec)[3:]
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


def is_gorenstein(semigroup: AffineSemigroup,
                  dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    dec = _dec(semigroup, dec)
    holds, witness = _scan(dec)[2]
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
    """Run all five tests over one shared decomposition and its scans."""
    dec = _dec(semigroup, dec)
    tests = (is_seminormal, is_normal, is_cohen_macaulay, is_buchsbaum,
             is_gorenstein)
    found = {name: test(semigroup, dec)
             for name, test in zip(PROPERTY_NAMES, tests)}
    sn, nr, cm, bb, go = (found[name][0] for name in PROPERTY_NAMES)
    if (nr and not (sn and cm)) or (go and not cm) or (cm and not bb):
        raise InternalError("normal => seminormal and Cohen-Macaulay, "
                            "Gorenstein => Cohen-Macaulay => Buchsbaum fails")
    return PropertyReport(
        **{name: holds for name, (holds, _) in found.items()},
        witnesses={name: w for name, (_, w) in found.items()})
