"""Exact integer linear algebra.

Ranks and coordinates all come from one fraction-free Gauss-Jordan routine,
:func:`echelon`, over Z or mod a prime, whose row update the cone-membership
simplex shares; a rational coordinate is an integer numerator over an integer
denominator, and neither floating point nor ``Fraction`` is used.  One
Euclidean row step, :func:`_clear_below`, is the Hermite normal form's and
both of the Smith normal form's: its row step, and its column step, run on
the columns of the matrix stacked over the column transform.  Matrices are
lists of row lists, vectors are tuples.  All functions are pure.

Conventions fixed project-wide:

* lattices are row spans of integer matrices;
* the Hermite normal form is row-style and lower-triangular (pivots on or
  left of the diagonal, the entry below a pivot reduced into ``[0, pivot)``),
  which makes lattice bases canonical and output deterministic.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from typing import NamedTuple

from .errors import InfiniteQuotientError, NotInLatticeError

Vec = tuple[int, ...]
IntMatrix = list[list[int]]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _row_add(mat: IntMatrix, i: int, src: int, q: int) -> None:
    if q:
        mat[i] = [a + q * b for a, b in zip(mat[i], mat[src])]


def _clear_below(mat: IntMatrix, r: int, j: int) -> bool:
    """Clear column ``j`` below row ``r`` by Euclid on rows; True when a
    remainder was swapped into row ``r``.

    ``mat[r][j]`` must be nonzero.  A nonzero remainder is strictly smaller
    than the pivot, so swapping it up makes progress and the loop ends.
    """
    swapped = False
    for i in range(r + 1, len(mat)):
        while mat[i][j]:
            _row_add(mat, i, r, -(mat[i][j] // mat[r][j]))
            if mat[i][j]:
                mat[r], mat[i] = mat[i], mat[r]
                swapped = True
    return swapped


def _width(mat: list[Vec] | IntMatrix) -> int:
    """The common row length of ``mat`` (0 when it has no rows)."""
    ncols = len(mat[0]) if mat else 0
    if any(len(r) != ncols for r in mat):
        raise ValueError("matrix rows have different lengths")
    return ncols


def smith_normal_form(mat: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return diagonal ``D`` and unimodular ``V`` with ``U @ mat @ V == D``
    for some unimodular ``U`` (the row operations, which are not kept).

    The diagonal is nonnegative and satisfies ``D[i][i] | D[i+1][i+1]``
    (trailing zeros allowed).  Total on rectangular matrices (``ValueError``
    when the rows differ in length); the pivot choice (entry of minimal
    absolute value, first position wins ties) makes the output
    deterministic.
    """
    nrows = len(mat)
    ncols = _width(mat)
    D = [list(r) for r in mat]
    V = identity(ncols)

    t = 0
    while t < min(nrows, ncols):
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                e = D[i][j]
                if e != 0 and (piv is None or abs(e) < abs(D[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        D[t], D[piv[0]] = D[piv[0]], D[t]
        if piv[1] != t:
            for row in D + V:
                row[t], row[piv[1]] = row[piv[1]], row[t]

        while True:
            dirty = _clear_below(D, t, t)
            if any(D[t][t + 1:]):
                # Clear row t right of the pivot: the same step on the
                # columns of D stacked over V, so V takes every column
                # operation.
                cols = [list(c) for c in zip(*D, *V)]
                dirty = _clear_below(cols, t, t) or dirty
                rows = [list(r) for r in zip(*cols)]
                D, V = rows[:nrows], rows[nrows:]
            if dirty:
                continue
            # Pivot must divide the remaining block for the chain property;
            # pulling in an offending row and re-clearing shrinks the pivot.
            bad = None
            for i in range(t + 1, nrows):
                if any(D[i][j] % D[t][t] for j in range(t + 1, ncols)):
                    bad = i
                    break
            if bad is None:
                break
            _row_add(D, t, bad, 1)
        if D[t][t] < 0:
            D[t] = [-a for a in D[t]]
        t += 1
    return D, V


# ---------------------------------------------------------------------------
# Hermite normal form and lattice bases
# ---------------------------------------------------------------------------

def _hnf_upper(a: IntMatrix) -> IntMatrix:
    """Classic row echelon HNF: pivots positive, entries above a pivot
    reduced into ``[0, pivot)``, zero rows dropped."""
    A = [row[:] for row in a]
    r = 0
    for j in range(len(A[0]) if A else 0):
        rows = [i for i in range(r, len(A)) if A[i][j]]
        if not rows:
            continue
        piv = min(rows, key=lambda i: abs(A[i][j]))
        A[r], A[piv] = A[piv], A[r]
        _clear_below(A, r, j)
        if A[r][j] < 0:
            A[r] = [-x for x in A[r]]
        for k in range(r):
            _row_add(A, k, r, -(A[k][j] // A[r][j]))
        r += 1
    return A[:r]


def hermite_normal_form(rows: list[Vec] | IntMatrix) -> IntMatrix:
    """Canonical lower-triangular row HNF of the lattice spanned by ``rows``:
    its rows are the lattice's canonical basis, empty for the zero lattice.
    Rows of different lengths raise ``ValueError``.

    Realized by running the upper-echelon form on the column-reversed
    matrix and mirroring back, which is a fixed coordinate permutation and
    therefore preserves the lattice.
    """
    mat = [list(r) for r in rows]
    _width(mat)
    mirrored = _hnf_upper([row[::-1] for row in mat])
    return [row[::-1] for row in mirrored][::-1]


# ---------------------------------------------------------------------------
# Integer Gauss-Jordan elimination
# ---------------------------------------------------------------------------

def _content_free(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _eliminate(row: list[int], prow: list[int], col: int) -> list[int]:
    """``row`` with its ``col`` entry cleared by the pivot row ``prow``
    (``prow[col] > 0``): a primitive positive multiple of the rational update."""
    pv, f = prow[col], row[col]
    return _content_free([pv * a - f * b for a, b in zip(row, prow)])


def _dot(a: Vec, b: Vec) -> int:
    return sum(x * y for x, y in zip(a, b))


def echelon(rows: list[Vec] | IntMatrix, char: int = 0) -> tuple[IntMatrix, list[int]]:
    """Reduced row echelon form of an integer matrix and its pivot columns.

    Only the nonzero rows are returned, one per pivot, so their number is
    the rank; each is zero in every pivot column but its own.  For
    ``char == 0`` the elimination is fraction-free over Z: a row is updated
    by cross-multiplying with the pivot row and then divided by the gcd of
    its entries, so every returned row is the primitive integer multiple,
    with positive pivot, of the corresponding rational reduced row.  For a
    prime ``char`` the entries are residues mod ``char`` and pivots are 1.
    """
    work = [[a % char for a in row] if char else list(row) for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        sel = next((i for i in range(r, len(work)) if work[i][col]), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        prow = work[r]
        if char:
            inv = pow(prow[col], -1, char)
            prow = [a * inv % char for a in prow]
        else:
            prow = _content_free([-a for a in prow] if prow[col] < 0 else prow)
        work[r] = prow
        for i, row in enumerate(work):
            f = row[col]
            if i == r or not f:
                continue
            if char:
                work[i] = [(a - f * b) % char for a, b in zip(row, prow)]
            else:
                work[i] = _eliminate(row, prow, col)
        pivots.append(col)
    return work[:len(pivots)], pivots


def rank(rows: list[Vec] | IntMatrix, char: int = 0) -> int:
    """Rank of an integer matrix over Q (``char == 0``) or over F_char."""
    return len(echelon(rows, char)[1])


class SpanSolver(NamedTuple):
    """Exact coordinates with respect to linearly independent integer vectors.

    For vectors ``v_1, ..., v_d`` in Z^m, ``x`` lies in their rational span
    iff every ``null`` row is orthogonal to ``x``, and then
    ``x == sum(c_k * v_k)`` with ``c_k = rows[k]·x / denominators[k]``.
    Built once from the echelon form of ``[V^T | I]``; a solve is then
    integer dot products only.
    """

    rows: tuple[Vec, ...]
    denominators: tuple[int, ...]
    null: tuple[Vec, ...]

    @staticmethod
    def of(vectors: list[Vec] | IntMatrix) -> "SpanSolver":
        d = len(vectors)
        m = len(vectors[0])
        reduced, pivots = echelon(
            [[v[i] for v in vectors] + [int(i == j) for j in range(m)]
             for i in range(m)])
        if pivots[:d] != list(range(d)):
            raise ValueError("vectors are linearly dependent")
        return SpanSolver(tuple(tuple(row[d:]) for row in reduced[:d]),
                          tuple(row[k] for k, row in enumerate(reduced[:d])),
                          tuple(tuple(row[d:]) for row in reduced[d:]))

    def numerators(self, x: list[int] | Vec) -> tuple[int, ...] | None:
        """``rows[k]·x`` for every k, or ``None`` when x is outside the span."""
        if any(_dot(row, x) for row in self.null):
            return None
        return tuple(_dot(row, x) for row in self.rows)


# ---------------------------------------------------------------------------
# Finite quotients of lattices
# ---------------------------------------------------------------------------

def _lattice_coords(solver: SpanSolver | None, x: list[int] | Vec) -> tuple[int, ...]:
    """Integer coordinates of ``x`` in the basis ``solver`` was built from;
    ``solver`` is None for the zero lattice."""
    if solver is None:
        if any(x):
            raise NotInLatticeError(f"{tuple(x)} is not in the lattice")
        return ()
    m = len(solver.rows[0])
    if len(x) != m:
        raise NotInLatticeError(
            f"vector has length {len(x)}, ambient dimension is {m}")
    nums = solver.numerators(x)
    if nums is None or any(a % p for a, p in zip(nums, solver.denominators)):
        raise NotInLatticeError(f"{tuple(x)} is not in the lattice")
    return tuple(a // p for a, p in zip(nums, solver.denominators))


class FiniteAbelianGroup:
    """A finite quotient ``L / L'`` of integer lattices.

    ``invariant_factors`` is the ascending divisibility chain (factors 1 are
    dropped, so the tuple may be empty for the trivial group).  ``project``
    is a total homomorphism from lattice elements to residue tuples modulo
    those factors; it vanishes exactly on ``L'`` and its fibers are the
    cosets, so the residue tuple is the canonical coset key.
    """

    def __init__(self, solver: SpanSolver | None,
                 invariant_factors: list[int], columns: list[Vec]):
        # ``solver`` gives coordinates in the basis of L (None when L = 0);
        # residue k is coordinates . columns[k] modulo invariant_factors[k]
        self._solver = solver
        self.invariant_factors: tuple[int, ...] = tuple(invariant_factors)
        self._columns = tuple(columns)
        self.order: int = prod(self.invariant_factors)

    def coords(self, x: list[int] | Vec) -> tuple[int, ...]:
        """Integer coordinates of ``x`` in the ambient lattice basis."""
        return _lattice_coords(self._solver, x)

    def project(self, x: list[int] | Vec) -> tuple[int, ...]:
        """Canonical coset label of ``x``; constant on ``L'``-cosets."""
        c = self.coords(x)
        return tuple(_dot(c, col) % f
                     for col, f in zip(self._columns, self.invariant_factors))

    def element_order(self, x: list[int] | Vec) -> int:
        """Order of the class of ``x`` in the quotient."""
        label = self.project(x)
        result = 1
        for res, f in zip(label, self.invariant_factors):
            result = lcm(result, f // gcd(f, res))
        return result

    def __repr__(self) -> str:
        if not self.invariant_factors:
            return "FiniteAbelianGroup(trivial)"
        parts = " x ".join(f"Z/{f}" for f in self.invariant_factors)
        return f"FiniteAbelianGroup({parts})"


def quotient_group(sup_basis: IntMatrix, sub_gens: list[Vec] | IntMatrix) -> FiniteAbelianGroup:
    """Quotient of the lattice spanned by ``sup_basis`` (independent rows)
    by the sublattice generated by ``sub_gens``.

    Raises :class:`NotInLatticeError` if some generator falls outside the
    big lattice and :class:`InfiniteQuotientError` if the ranks differ.
    """
    r = len(sup_basis)
    solver = SpanSolver.of(sup_basis) if r else None
    d, v = smith_normal_form(
        [list(_lattice_coords(solver, w)) for w in sub_gens])
    diag = [d[i][i] if i < len(d) else 0 for i in range(r)]
    if 0 in diag:
        raise InfiniteQuotientError(
            "sublattice has smaller rank, the quotient is infinite")
    keep = [j for j, f in enumerate(diag) if f > 1]
    return FiniteAbelianGroup(solver, [diag[j] for j in keep],
                              [tuple(row[j] for row in v) for j in keep])


# ---------------------------------------------------------------------------
# Exact cone membership (fraction-free phase-1 simplex)
# ---------------------------------------------------------------------------

def nonnegative_combination_exists(vectors: list[Vec], target: Vec) -> bool:
    """Whether ``target`` equals a rational combination of ``vectors`` with
    nonnegative coefficients.

    Phase-1 simplex with Bland's rule, which rules out cycling, so this
    always terminates.  The tableau is fraction-free: every row, the
    objective row included, is an integer positive multiple of its rational
    counterpart, kept primitive by :func:`_eliminate`, so signs, and ratios
    within a row, are those of the rational tableau.
    """
    m = len(target)
    k = len(vectors)
    # row i: constraint i (sign-flipped to a nonnegative right-hand side),
    # artificial variable i, right-hand side
    rows = []
    for i, b in enumerate(target):
        sign = -1 if b < 0 else 1
        rows.append([sign * v[i] for v in vectors]
                    + [int(i == j) for j in range(m)] + [sign * b])
    # reduced costs of the phase-1 objective, the artificials' sum, then -sum
    objective = ([-sum(row[j] for row in rows) for j in range(k)] + [0] * m
                 + [-sum(row[-1] for row in rows)])
    basis = list(range(k, k + m))
    while True:
        enter = next((j for j in range(k + m) if objective[j] < 0), None)
        if enter is None:
            break
        # phase 1 is bounded below by 0, so some entry of the column is > 0
        leave = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / a_i vs rhs_leave / a_leave, cross-multiplied (a > 0)
                cmp = row[-1] * rows[leave][enter] - rows[leave][-1] * row[enter]
                if cmp < 0 or cmp == 0 and basis[i] < basis[leave]:
                    leave = i
        prow = rows[leave]
        for i, row in enumerate(rows):
            if i != leave and row[enter]:
                rows[i] = _eliminate(row, prow, enter)
        objective = _eliminate(objective, prow, enter)
        basis[leave] = enter
    return objective[-1] == 0
