"""Positive affine semigroups in N^m.

The central object is :class:`AffineSemigroup`: an ordered list of distinct
nonzero generators with lazily computed cone and lattice data.  Geometry is
exact and integer-only: frame coordinates and the degree functional are
numerators over denominators from the elimination kernel of :mod:`.intlinalg`,
extreme rays come from its fraction-free simplex on the generators with
support inside the candidate's.  A direction supported on two or more
coordinates, each of whose axes holds a generator, is a combination of those
and needs no simplex.  The module generators over the frame come from one
best-first search, which also gives each of them its frame numerators and
its coset label in the quotient group; later layers read these instead of
solving or projecting again.  It orders and compares candidates as plain
ints (coordinates and frame numerators in fixed-width fields, and the coset
label's index), carries their coordinate and numerator tuples beside them,
and drops a candidate when generated if already dominated.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heappop, heappush
from itertools import product
from math import gcd, lcm
from operator import add, index, mul
from typing import NamedTuple

from .errors import (
    DimensionMismatchError,
    DuplicateGeneratorError,
    EmptyInputError,
    InternalError,
    NegativeEntryError,
    NotSimplicialError,
    OutsideSpanError,
    ZeroGeneratorError,
)
from .intlinalg import (
    FiniteAbelianGroup,
    IntMatrix,
    SpanSolver,
    Vec,
    echelon,
    hermite_normal_form,
    nonnegative_combination_exists,
    quotient_group,
)


def vkey(v: Vec) -> tuple[int, Vec]:
    """Canonical vector order used project-wide: coordinate sum, then lex."""
    return (sum(v), v)


def _field_width(bound: int) -> int:
    return bound.bit_length()  # bits that hold 0..bound


def _pack(v: Vec, width: int) -> int:
    """``v`` in ``width``-bit fields, entry 0 most significant."""
    return sum(e << width * k for k, e in enumerate(reversed(v)))


def primitive(v: Vec) -> Vec:
    g = gcd(*v)
    return tuple(e // g for e in v)


class Frame(NamedTuple):
    """The free subsemigroup: one minimal generator per extreme ray.

    ``elements`` are linearly independent over Q and ordered by descending
    tuple order of their primitive ray directions (x_1 is the lex-largest
    ray).  The unique rational ``lam`` with ``sum(lam[k] * e_k) == x`` is
    ``lam[k] == numerators(x)[k] / denominators[k]``.
    """

    elements: tuple[Vec, ...]
    solver: SpanSolver

    @staticmethod
    def from_elements(elements: tuple[Vec, ...]) -> "Frame":
        return Frame(elements, SpanSolver.of(elements))

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def ambient_dim(self) -> int:
        return len(self.elements[0])

    @property
    def denominators(self) -> tuple[int, ...]:
        """The per-coordinate denominators of :meth:`numerators`."""
        return self.solver.denominators

    def numerators(self, x: Vec) -> tuple[int, ...]:
        """Integer numerators of the frame coordinates, linear in ``x``."""
        if len(x) != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector has length {len(x)}, ambient dimension is {self.ambient_dim}")
        nums = self.solver.numerators(x)
        if nums is None:
            raise OutsideSpanError(
                f"{tuple(x)} is outside the rational span of the frame")
        return nums

    def lambda_text(self, numerators: tuple[int, ...]) -> tuple[str, ...]:
        """The frame coordinates ``numerators[k] / denominators[k]`` as
        reduced ``a/b`` strings, ``a`` alone when the denominator is 1."""
        out = []
        for a, p in zip(numerators, self.denominators):
            g = gcd(a, p)
            out.append(f"{a // g}" if p == g else f"{a // g}/{p // g}")
        return tuple(out)


class DegreeFunctional(NamedTuple):
    """The functional ``numerators / denominator``, 1 on every generator.

    On the group generated by B it takes integer values automatically,
    since every group element is an integer combination of generators.
    """

    numerators: tuple[int, ...]
    denominator: int

    def degree(self, x: Vec) -> int:
        if len(x) != len(self.numerators):
            raise ValueError(f"{tuple(x)} has the wrong length")
        total = sum(map(mul, self.numerators, x))
        q, r = divmod(total, self.denominator)
        if r:
            raise ValueError(f"degree of {tuple(x)} is not an integer")
        return q


class AffineSemigroup:
    """A positive affine semigroup given by distinct nonzero generators in N^m.

    Immutable after construction except for internal memo caches, whose
    fills are idempotent; concurrent readers may share an instance.
    """

    def __init__(self, generators: tuple[Vec, ...]):
        self.generators = generators
        self.ambient_dim = len(generators[0])

    def __repr__(self) -> str:
        return f"AffineSemigroup({list(self.generators)!r})"

    # -- lattice data ---------------------------------------------------------

    @cached_property
    def group_basis(self) -> IntMatrix:
        """Canonical basis of the group generated by the generators."""
        return hermite_normal_form(self.generators)

    @property
    def rank(self) -> int:
        return len(self.group_basis)

    # -- cone geometry ----------------------------------------------------------

    @cached_property
    def _extreme_ray_indices(self) -> tuple[int, ...]:
        # A direction is extreme iff its representative g is no nonnegative
        # combination of the other directions' generators.  These lie in N^m,
        # so only those with support inside supp(g) can take part.  For one
        # coordinate c these are multiples of e_c, in g's direction: extreme.
        # For two or more, each of whose axes e_c is a generator direction,
        # g = sum(g_c e_c) is a nonnegative combination of those axis
        # generators: not extreme.  Neither case needs an LP.
        directions = [primitive(g) for g in self.generators]
        axes = {d.index(1) for d in directions if sum(d) == 1}
        reps = []
        for direction in sorted(set(directions), reverse=True):
            rep = min((i for i, d in enumerate(directions) if d == direction),
                      key=lambda i: vkey(self.generators[i]))
            support = [c for c, e in enumerate(self.generators[rep]) if e]
            if len(support) == 1:
                reps.append(rep)
                continue
            if axes.issuperset(support):
                continue
            others = [tuple(h[c] for c in support)
                      for h, d in zip(self.generators, directions)
                      if d != direction and sum(h) == sum(h[c] for c in support)]
            target = tuple(self.generators[rep][c] for c in support)
            if not others or not nonnegative_combination_exists(others, target):
                reps.append(rep)
        return tuple(reps)

    def extreme_rays(self) -> tuple[int, ...]:
        """One representative generator index per extreme ray, ordered by
        descending tuple order of the primitive ray directions (the usual lex
        convention: x_1 is the lex-largest, and a standard basis comes out as
        e_1, ..., e_d)."""
        return self._extreme_ray_indices

    def is_simplicial(self) -> bool:
        return len(self._extreme_ray_indices) == self.rank

    @cached_property
    def _frame(self) -> Frame | None:
        if not self.is_simplicial():
            return None
        elements = tuple(self.generators[i] for i in self._extreme_ray_indices)
        return Frame.from_elements(elements)

    def frame(self) -> Frame:
        f = self._frame
        if f is None:
            raise NotSimplicialError(
                f"cone has {len(self._extreme_ray_indices)} extreme rays "
                f"but rank {self.rank}")
        return f

    @cached_property
    def _quotient(self) -> FiniteAbelianGroup:
        return quotient_group(self.group_basis, list(self.frame().elements))

    def quotient(self) -> FiniteAbelianGroup:
        """The finite group of generator classes modulo the frame lattice."""
        return self._quotient

    # -- grading ---------------------------------------------------------------

    @cached_property
    def _degree_functional(self) -> DegreeFunctional | None:
        # Solve generators . c == 1 on the reduced echelon form of
        # [generators | 1]; free coefficients stay 0.
        n = self.ambient_dim
        rows, pivots = echelon([g + (1,) for g in self.generators])
        if pivots[-1] == n:
            return None
        den = lcm(*(row[col] for row, col in zip(rows, pivots)))
        nums = [0] * n
        for row, col in zip(rows, pivots):
            nums[col] = row[n] * (den // row[col])
        return DegreeFunctional(tuple(nums), den)

    def degree_functional(self) -> DegreeFunctional | None:
        return self._degree_functional

    @property
    def is_homogeneous(self) -> bool:
        return self._degree_functional is not None

    # -- module generators over the frame ------------------------------------------

    @cached_property
    def _module_search(self) -> tuple[tuple[Vec, ...], tuple[tuple, ...]]:
        # Every x in B is m + (frame combination) for a module generator m,
        # so x is one iff no other module generator m of its coset has
        # lam(m) <= lam(x).  Such an m has a smaller coordinate sum, so
        # popping in vkey order decides it first.  Removing an extra from a
        # module generator leaves one, so expanding only the kept elements
        # reaches them all.  A module generator is a sum of fewer than |G|
        # extras (two partial sums of |G| or more share a coset, and their
        # difference contains a frame generator), so a candidate's entries
        # are at most |G| times the extras' largest.  A candidate is its sum
        # and coordinates in fields, coordinate 0 most significant, so int
        # order is vkey order; its frame numerators in fields with a guard
        # bit each, so a <= b iff ((b | guard) - a) & guard == guard; its
        # label's index, advanced by a table per extra; and its coordinate
        # and numerator tuples, one tuple(map(add)) each per push.  A kept
        # element whose tuples do not fit their fields raises.
        frame, group = self.frame(), self.quotient()
        factors = group.invariant_factors
        extras = [g for g in self.generators if g not in frame.elements]
        nums = [frame.numerators(g) for g in extras]
        m, d = self.ambient_dim, frame.dim
        wx = _field_width(group.order * max(map(max, extras), default=0))
        wn = _field_width(group.order * max(map(max, nums), default=0)) + 1
        guard = _pack((1 << wn - 1,) * d, wn)
        labels = list(product(*map(range, factors)))
        moves = []
        for g, ng in zip(extras, nums):
            table = [0]
            for f, c in zip(factors, group.project(g)):
                step = [*range(c, f), *range(c)]  # j -> (j + c) % f
                table = [i * f + j for i in table for j in step]
            moves.append((sum(g) << m * wx | _pack(g, wx), _pack(ng, wn), table,
                          g, ng))
        heap = [(0, 0, 0, (0,) * m, (0,) * d)]
        seen, result, members = {0}, [], {}
        kept: list[list[int]] = [[] for _ in labels]
        while heap:
            key, num, label, x, nx = heappop(heap)
            high = num | guard
            for k in kept[label]:
                if (high - k) & guard == guard:
                    break
            else:
                # an overflowed field carries into its neighbour, but the
                # carried tuples hold the true entries
                if max(x) >> wx or max(nx) >> wn - 1:
                    raise InternalError(f"module generator {x} overflowed")
                kept[label].append(num)
                result.append(x)
                members.setdefault(labels[label], []).append((x, nx))
                for kb, nb, table, g, ng in moves:
                    y = key + kb
                    if y in seen:
                        continue
                    seen.add(y)
                    # dominated already: never queued (the pop test gets
                    # the rest)
                    ny, ly = num + nb, table[label]
                    high = ny | guard
                    for k in kept[ly]:
                        if (high - k) & guard == guard:
                            break
                    else:
                        heappush(heap, (y, ny, ly, tuple(map(add, x, g)),
                                        tuple(map(add, nx, ng))))
        return tuple(result), tuple(
            (label, tuple(ms)) for label, ms in members.items())

    def module_generators(self) -> tuple[Vec, ...]:
        """The elements of B from which no frame generator can be subtracted
        inside B, sorted by :func:`vkey`."""
        return self._module_search[0]

    def module_generator_cosets(self) -> tuple[tuple[tuple[int, ...], tuple], ...]:
        """The module generators as ``(label, members)`` pairs, one per class
        modulo the frame lattice: ``label`` is the class's
        :meth:`FiniteAbelianGroup.project` label, ``members`` its module
        generators ``(x, Frame.numerators(x))`` in :func:`vkey` order.
        Classes come in the order of their first element."""
        return self._module_search[1]


def validate(gens) -> AffineSemigroup:
    """Construct a semigroup from raw generator rows, or reject them."""
    # operator.index rejects floats instead of silently truncating
    rows = [tuple(index(e) for e in g) for g in gens]
    if not rows:
        raise EmptyInputError("a semigroup needs at least one generator")
    m = len(rows[0])
    if m == 0:
        raise EmptyInputError("generator 0 is an empty row")
    for g in rows:
        if len(g) != m:
            raise DimensionMismatchError(
                f"generator {g} has length {len(g)}, expected {m}")
        if any(e < 0 for e in g):
            raise NegativeEntryError(f"generator {g} has a negative entry")
        if all(e == 0 for e in g):
            raise ZeroGeneratorError("the zero vector is not a generator")
    seen = set()
    for g in rows:
        if g in seen:
            raise DuplicateGeneratorError(f"generator {g} appears twice")
        seen.add(g)
    return AffineSemigroup(tuple(rows))
