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

The two coordinate tests read the frame numerators that each summand carries
from the module-generator search; nothing here solves for coordinates again.
None of the tests depends on the coefficient field.  Witness objects are
produced for every negative answer; scans run in a fixed canonical order so
witnesses are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .decomposition import Decomposition, decompose
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


def _lambda_scan(dec: Decomposition, strict: bool) -> tuple[bool, dict | None]:
    # the vkey-first module generator with a numerator above (or at) its
    # denominator, read off the summands
    dens = dec.frame.denominators
    bad = [(x, num) for s in dec.summands
           for x, num in zip(s.gamma, s.gamma_numerators)
           if any(a > p if strict else a >= p for a, p in zip(num, dens))]
    if not bad:
        return True, None
    x, num = min(bad, key=lambda item: vkey(item[0]))
    return False, {"element": x, "lambda": tuple(map(Fraction, num, dens))}


def is_seminormal(semigroup: AffineSemigroup,
                  dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    """Seminormality: every module generator has frame coordinates <= 1."""
    return _lambda_scan(_dec(semigroup, dec), strict=True)


def is_normal(semigroup: AffineSemigroup,
              dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    """Normality: every nonzero module generator has frame coordinates < 1."""
    return _lambda_scan(_dec(semigroup, dec), strict=False)


def _first_bad_ideal(dec: Decomposition, bad) -> dict | None:
    """The witness of the summand with the vkey-least shift whose ideal is
    ``bad``, or ``None`` when no ideal is."""
    hits = [s for s in dec.summands if bad(s.ideal)]
    if not hits:
        return None
    s = min(hits, key=lambda s: vkey(s.shift))
    return {"coset": s.coset, "shift": s.shift, "ideal": s.ideal}


def is_cohen_macaulay(semigroup: AffineSemigroup,
                      dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    """Cohen-Macaulay: every summand ideal is the unit ideal."""
    witness = _first_bad_ideal(_dec(semigroup, dec), lambda i: not i.is_unit)
    return witness is None, witness


def is_buchsbaum(semigroup: AffineSemigroup,
                 dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    dec = _dec(semigroup, dec)
    witness = _first_bad_ideal(dec, lambda i: not (i.is_unit or i.is_maximal))
    if witness is not None:
        return False, {"kind": "ideal", **witness}
    tops = sorted((s.shift for s in dec.summands if s.ideal.is_maximal),
                  key=vkey)
    top_set = set(tops)
    frame_set = set(dec.frame.elements)
    extras = sorted((g for g in semigroup.generators if g not in frame_set),
                    key=vkey)
    for h in tops:
        for c in extras:
            total = tuple(a + b for a, b in zip(h, c))
            if total in top_set:
                return False, {"kind": "sum", "h": h, "c": c, "sum": total}
    return True, None


def is_gorenstein(semigroup: AffineSemigroup,
                  dec: Decomposition | None = None) -> tuple[bool, dict | None]:
    dec = _dec(semigroup, dec)
    cm, witness = is_cohen_macaulay(semigroup, dec)
    if not cm:
        return False, {"kind": "ideal", **witness}
    # all ideals unit, so the shifts are exactly the module generators
    shifts = sorted((s.shift for s in dec.summands), key=vkey)
    top_sum = max(sum(h) for h in shifts)
    tied = [h for h in shifts if sum(h) == top_sum]
    if len(tied) > 1:
        return False, {"kind": "tie", "elements": tuple(tied)}
    top = tied[0]
    remaining = set(shifts)
    while remaining:
        h = min(remaining, key=vkey)
        partner = tuple(a - b for a, b in zip(top, h))
        if partner not in remaining:
            return False, {"kind": "unpaired", "element": h, "partner": partner}
        # set semantics: one removal when h is its own partner
        remaining.discard(h)
        remaining.discard(partner)
    return True, None


def full_report(semigroup: AffineSemigroup,
                dec: Decomposition | None = None) -> PropertyReport:
    """Run all five tests over one shared decomposition."""
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
