"""Direct-sum decomposition of a simplicial semigroup ring over its frame.

For a simplicial semigroup the frame generates a free subsemigroup A, so the
frame ring is a polynomial ring in d variables.  Grouping the minimal module
generators by their class modulo the frame lattice yields, per class, a shift
vector and a monomial ideal in frame coordinates; together these describe the
semigroup ring as a finite direct sum of shifted monomial ideals.  The classes,
their labels and every generator's frame numerators come from the
module-generator search; the summands carry the numerators on.
:func:`.homology.hilbert_verify` checks a decomposition by the Betti tables
memoized on it.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import NamedTuple

from .errors import InternalError
from .semigroup import AffineSemigroup, Frame, Vec, vkey


class MonomialIdeal(NamedTuple):
    """A monomial ideal in ``num_vars`` variables given by its minimal
    generating exponents (an antichain, sorted by :func:`vkey`).

    The unit ideal is represented by the single zero exponent.
    """

    num_vars: int
    gens: tuple[Vec, ...]

    @staticmethod
    def from_gens(num_vars: int, gens) -> "MonomialIdeal":
        rows = sorted({tuple(int(e) for e in g) for g in gens}, key=vkey)
        if not rows:
            raise ValueError("a monomial ideal needs at least one generator")
        for g in rows:
            if len(g) != num_vars or any(e < 0 for e in g):
                raise ValueError(f"bad exponent vector {g}")
        minimal = [g for g in rows
                   if not any(h != g and all(a <= b for a, b in zip(h, g))
                              for h in rows)]
        return MonomialIdeal(num_vars, tuple(minimal))

    @staticmethod
    def unit(num_vars: int) -> "MonomialIdeal":
        return MonomialIdeal(num_vars, ((0,) * num_vars,))

    @property
    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.num_vars,)

    @property
    def is_maximal(self) -> bool:
        """Whether this is the ideal generated by all the variables."""
        units = {tuple(1 if i == k else 0 for i in range(self.num_vars))
                 for k in range(self.num_vars)}
        return set(self.gens) == units

    def contains(self, exponent: Vec) -> bool:
        """Whether the monomial with this exponent lies in the ideal."""
        n = range(self.num_vars)
        return any(all(g[i] <= exponent[i] for i in n) for g in self.gens)

    def __str__(self) -> str:
        shown = sorted(self.gens, reverse=True)  # x_1 first, like a lex order
        return f"ideal({', '.join(monomial_str(g) for g in shown)})"


def monomial_str(exponent: Vec) -> str:
    parts = []
    for i, e in enumerate(exponent):
        if e == 1:
            parts.append(f"x_{i + 1}")
        elif e > 1:
            parts.append(f"x_{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


class Summand(NamedTuple):
    """One class of the decomposition: its module generators ``gamma`` with
    their :meth:`Frame.numerators` ``gamma_numerators``, the componentwise
    frame-coordinate minimum ``shift`` and its degree (``None`` unless the
    semigroup is homogeneous), and the resulting monomial ideal in frame
    coordinates."""

    coset: tuple[int, ...]
    gamma: tuple[Vec, ...]
    gamma_numerators: tuple[tuple[int, ...], ...]
    shift: Vec
    ideal: MonomialIdeal
    shift_degree: int | None

    @property
    def shift_numerators(self) -> tuple[int, ...]:
        """The frame numerators of ``shift``, the minima over gamma's."""
        return tuple(map(min, zip(*self.gamma_numerators)))


class _DecompositionFields(NamedTuple):
    frame: Frame
    group_order: int
    invariant_factors: tuple[int, ...]
    summands: tuple[Summand, ...]


class Decomposition(_DecompositionFields):
    """The summands over the frame ring, one per class of the quotient
    group.  ``tables`` memoizes, per characteristic, the Betti table of each
    distinct summand ideal; only :func:`.homology._summand_tables` fills it.
    It is not a field: equality and hashing ignore it, and ``_replace``
    starts a new, empty memo instead of carrying the original's tables to
    other summands."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}")

    @cached_property
    def tables(self) -> dict:
        return {}


def decompose(semigroup: AffineSemigroup) -> Decomposition:
    """Decompose the semigroup ring over its frame ring, in integers, from
    the labelled classes and frame numerators of the module-generator
    search; no element is projected or solved for again here.

    Raises :class:`NotSimplicialError` for non-simplicial cones, where the
    shifts would not be unique, and :class:`InternalError` when the search's
    classes disagree with the quotient group: a label shared by two classes,
    a class count other than the group order, or a class whose numerators
    differ by a non-multiple of the denominators.
    """
    frame = semigroup.frame()
    group = semigroup.quotient()
    dens = frame.denominators
    common = lcm(*dens)
    cosets = semigroup.module_generator_cosets()
    by_label = dict(cosets)
    if not len(cosets) == len(by_label) == group.order:
        raise InternalError(f"module generators meet {len(by_label)} of "
                            f"{group.order} cosets in {len(cosets)} classes")

    summands = []
    for label, members in sorted(by_label.items()):
        nums = tuple(num for _, num in members)
        mins = [min(col) for col in zip(*nums)]
        gens = [tuple(_exact(a - lo, p) for a, lo, p in zip(num, mins, dens))
                for num in nums]
        # within a coset the exponents are automatically a minimal antichain
        ideal = MonomialIdeal(frame.dim, tuple(sorted(gens, key=vkey)))
        shift = tuple(c - sum(e * f[i] for e, f in zip(gens[0], frame.elements))
                      for i, c in enumerate(members[0][0]))
        # frame elements have degree one, so deg(shift) = sum(mins[k] / dens[k])
        degree = _exact(sum(lo * (common // p) for lo, p in zip(mins, dens)),
                        common) if semigroup.is_homogeneous else None
        summands.append(Summand(label, tuple(x for x, _ in members), nums,
                                shift, ideal, degree))
    return Decomposition(frame, group.order, group.invariant_factors,
                         tuple(summands))


def _exact(a: int, p: int) -> int:
    q, r = divmod(a, p)
    if r:
        raise InternalError(f"{a} is not a multiple of {p}")
    return q
