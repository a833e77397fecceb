"""Brute-force oracles used by the tests.

Everything here implements raw definitions by direct enumeration and small
local linear solves; nothing calls into the package's decomposition,
module-generator, or homology code paths, so agreement is meaningful.
Restricted to the small ambient dimensions the tests use (m <= 2 for the
semigroup oracles), except for :func:`box_module_generators`, which takes
its frame from the package and works in any dimension, and for the
``Fraction`` simplex and :func:`lp_extreme_rays` built on it.  The
reference Smith and Hermite normal forms are the package's earlier
eliminations: the Smith form keeps its left transform ``U``, and the
Hermite form clears each column by whole pivot passes.  Likewise
:func:`reference_decompose` and :func:`reference_full_report` are the
package's earlier per-summand decomposition loop and five-scan property
report; they read the package's frame and module-generator classes and
build its records, so that their results compare equal.  And
:func:`reference_betti_table` is the package's earlier memo-free Betti
loop, which computes the homology of every lcm point's upper Koszul complex
afresh from its own copies of the package's face and homology helpers, with
ranks from :func:`brute_rank`, over its own copy of the package's earlier
frontier lcm lattice (:func:`reference_lcm_lattice`).
:func:`reference_module_search` is the package's earlier tuple-heap
module-generator search, run on the package's frame and quotient group.
"""

from __future__ import annotations

import heapq
import operator
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from monoalg.errors import InternalError


def members_up_to(gens, max_sum):
    """All semigroup elements with coordinate sum <= max_sum, by closure."""
    gens = [tuple(g) for g in gens]
    m = len(gens[0])
    zero = (0,) * m
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple(a + b for a, b in zip(x, g))
                if sum(y) <= max_sum and y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def redundant_generators(gens):
    """Indices of generators lying in the semigroup of the others, by
    closure up to the generator's own coordinate sum."""
    gens = [tuple(g) for g in gens]
    out = []
    for i, g in enumerate(gens):
        others = gens[:i] + gens[i + 1:]
        if others and g in members_up_to(others, sum(g)):
            out.append(i)
    return tuple(out)


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"cannot multiply {len(a[0])} columns by {len(b)} rows")
    cols = len(b[0]) if b else 0
    return [[sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for ra in a]


def det(mat):
    """Determinant of a square integer matrix, by Bareiss elimination."""
    n = len(mat)
    if n == 0:
        return 1
    if any(len(r) != n for r in mat):
        raise ValueError("det needs a square matrix")
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            sel = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if sel is None:
                return 0
            m[k], m[sel] = m[sel], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def brute_rank(rows, char):
    """Rank over Q (char 0, in Fraction) or over F_char, by forward
    elimination to row echelon form."""
    def div(a, b):
        return Fraction(a) / b if char == 0 else a * pow(b, -1, char) % char

    work = [[x % char if char else x for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        sel = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        for i in range(rank + 1, len(work)):
            f = div(work[i][col], work[rank][col])
            work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
            if char:
                work[i] = [a % char for a in work[i]]
        rank += 1
    return rank


def solve_fractions(columns, target):
    """Solve sum(c_k * columns[k]) == target by Gaussian elimination.
    Returns the coefficient tuple or None.  Columns must be independent."""
    m = len(target)
    n = len(columns)
    aug = [[Fraction(columns[k][i]) for k in range(n)] + [Fraction(target[i])]
           for i in range(m)]
    row = 0
    piv_cols = []
    for col in range(n):
        sel = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [a / pv for a in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        piv_cols.append(col)
        row += 1
    for i in range(row, m):
        if aug[i][n] != 0:
            return None
    if len(piv_cols) != n:
        raise ValueError("oracle expects independent columns")
    out = [Fraction(0)] * n
    for i, col in enumerate(piv_cols):
        out[col] = aug[i][n]
    return tuple(out)


def fraction_nonnegative_combination_exists(vectors, target):
    """Whether ``target`` is a nonnegative rational combination of
    ``vectors``: phase-1 simplex with Bland's rule on ``Fraction``s, every
    reduced cost recomputed from the basis on each pivot."""
    m = len(target)
    k = len(vectors)
    rows = []
    rhs = []
    for i in range(m):
        coeffs = [Fraction(v[i]) for v in vectors]
        b = Fraction(target[i])
        if b < 0:
            coeffs = [-c for c in coeffs]
            b = -b
        rows.append(coeffs + [Fraction(0)] * m)
        rhs.append(b)
    for i in range(m):
        rows[i][k + i] = Fraction(1)
    basis = list(range(k, k + m))
    cost = [Fraction(0)] * k + [Fraction(1)] * m

    def reduced_costs():
        return [cost[j] - sum(cost[basis[i]] * rows[i][j] for i in range(m))
                for j in range(k + m)]

    while True:
        red = reduced_costs()
        enter = next((j for j in range(k + m) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rhs[i] / rows[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return False
        pv = rows[leave][enter]
        rows[leave] = [a / pv for a in rows[leave]]
        rhs[leave] /= pv
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[leave])]
                rhs[i] -= f * rhs[leave]
        basis[leave] = enter
    return sum(cost[basis[i]] * rhs[i] for i in range(m)) == 0


def lp_extreme_rays(gens):
    """Extreme-ray representatives as in ``AffineSemigroup.extreme_rays``:
    per primitive direction (descending), the generator of least (sum, lex),
    kept when the Fraction simplex finds it outside the cone of all the
    generators of the other directions, with no support restriction."""
    gens = [tuple(g) for g in gens]
    directions = sorted({_primitive(g) for g in gens}, reverse=True)
    out = []
    for d in directions:
        on_ray = [i for i, g in enumerate(gens) if _primitive(g) == d]
        rep = min(on_ray, key=lambda i: (sum(gens[i]), gens[i]))
        others = [g for g in gens if _primitive(g) != d]
        if not fraction_nonnegative_combination_exists(others, gens[rep]):
            out.append(rep)
    return tuple(out)


def _primitive(v):
    g = 0
    for e in v:
        g = gcd(g, e)
    return tuple(e // g for e in v)


def brute_frame(gens):
    """Extreme-ray frame for m <= 2, by slope geometry."""
    gens = [tuple(g) for g in gens]
    m = len(gens[0])
    if m > 2:
        raise ValueError(f"brute_frame handles m <= 2, got m = {m}")
    directions = sorted({_primitive(g) for g in gens})
    if m == 1 or len(directions) == 1:
        extremes = [directions[0]]
    else:
        def cross(u, v):
            return u[0] * v[1] - u[1] * v[0]

        low = high = directions[0]
        for d in directions[1:]:
            if cross(d, low) > 0:
                low = d
            if cross(high, d) > 0:
                high = d
        extremes = sorted({low, high}, reverse=True)
    frame = []
    for direction in extremes:
        on_ray = [g for g in gens if _primitive(g) == direction]
        frame.append(min(on_ray, key=lambda g: (sum(g), g)))
    return frame


def brute_module_generators(gens):
    """(frame, B_A) from the raw definition by bounded enumeration."""
    gens = [tuple(g) for g in gens]
    frame = brute_frame(gens)
    frame_set = set(frame)
    bound = 0
    for g in gens:
        if g in frame_set:
            continue
        lam = solve_fractions(frame, g)
        order = lcm(*[q.denominator for q in lam]) if lam else 1
        bound += (order - 1) * sum(g)
    members = members_up_to(gens, bound)
    ba = set()
    for x in members:
        minimal = True
        for e in frame:
            y = tuple(a - b for a, b in zip(x, e))
            if all(c >= 0 for c in y) and y in members:
                minimal = False
                break
        if minimal:
            ba.add(x)
    return frame, ba


def _memoized_member(gens):
    """Membership in the semigroup of ``gens``: descent on ``x - g`` with a
    cache, each step strictly decreasing the coordinate sum."""
    cache = {(0,) * len(gens[0]): True}

    def member(x):
        if any(e < 0 for e in x):
            return False
        stack = [x]
        while stack:
            v = stack[-1]
            if v in cache:
                stack.pop()
                continue
            below = [w for w in (tuple(a - c for a, c in zip(v, g))
                                 for g in gens)
                     if all(e >= 0 for e in w)]
            if any(cache.get(w) for w in below):
                cache[v] = True
                stack.pop()
                continue
            pending = [w for w in below if w not in cache]
            if pending:
                stack.extend(pending)
            else:
                cache[v] = False
                stack.pop()
        return cache[x]

    return member


def box_module_generators(gens):
    """B_A by the box method, sorted by (coordinate sum, lex).

    Every minimal x is a sum of extras b_j with exponents n_j < ord(b_j),
    the order of b_j modulo the frame lattice: otherwise ord(b_j)*b_j is a
    nonzero element of the frame semigroup (integer, nonnegative frame
    coordinates), and a frame generator could be subtracted from x inside
    B.  So the box of such sums, filtered by membership of x - e_k, is B_A.
    The frame (extreme rays) comes from the package; orders and membership
    are computed here.
    """
    from monoalg import validate

    gens = [tuple(g) for g in gens]
    frame = validate(gens).frame().elements
    extras = [g for g in gens if g not in frame]
    orders = [lcm(*(q.denominator for q in solve_fractions(frame, b)))
              for b in extras]
    member = _memoized_member(gens)
    candidates = {tuple(sum(n * b[i] for n, b in zip(exps, extras))
                        for i in range(len(gens[0])))
                  for exps in product(*(range(d) for d in orders))}
    return tuple(x for x in sorted(candidates, key=lambda v: (sum(v), v))
                 if not any(member(tuple(a - c for a, c in zip(x, e)))
                            for e in frame))


def brute_seminormal(gens):
    frame, ba = brute_module_generators(gens)
    return all(max(solve_fractions(frame, x)) <= 1 for x in ba)


def brute_normal(gens):
    frame, ba = brute_module_generators(gens)
    return all(max(solve_fractions(frame, x)) < 1 for x in ba if any(x))


def brute_cohen_macaulay(gens):
    """Every coset class of B_A a singleton; classes found pairwise."""
    frame, ba = brute_module_generators(gens)
    ba = sorted(ba)
    for x, y in combinations(ba, 2):
        diff = tuple(a - b for a, b in zip(x, y))
        lam = solve_fractions(frame, diff)
        if lam is not None and all(q.denominator == 1 for q in lam):
            return False
    return True


def cone_member_2d(gens, x):
    """Whether x lies in the rational cone of the generators (m <= 2)."""
    directions = sorted({_primitive(g) for g in gens})
    if len(directions) == 1:
        d = directions[0]
        lam = solve_fractions([d], x)
        return lam is not None and lam[0] >= 0

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    low = high = directions[0]
    for d in directions[1:]:
        if cross(d, low) > 0:
            low = d
        if cross(high, d) > 0:
            high = d
    return cross(x, low) >= 0 and cross(high, x) >= 0


def brute_normal_hilbert(gens, probe_sum):
    """Normality by definition: every lattice point of the cone is in the
    semigroup, probed up to the given coordinate sum."""
    # lattice only; no decomposition
    from monoalg.intlinalg import hermite_normal_form

    gens = [tuple(g) for g in gens]
    m = len(gens[0])
    basis = hermite_normal_form(gens)
    members = members_up_to(gens, probe_sum)
    if m == 1:
        points = [(s,) for s in range(probe_sum + 1)]
    else:
        points = [(a, b) for a in range(probe_sum + 1)
                  for b in range(probe_sum + 1 - a)]
    for p in points:
        coeff = solve_fractions([tuple(row) for row in basis], p)
        in_lattice = coeff is not None and all(q.denominator == 1 for q in coeff)
        if in_lattice and cone_member_2d(gens, p) and p not in members:
            return False
    return True


def numerical_gaps(gens):
    """Gap set of a numerical semigroup with gcd 1 (m == 1 generators)."""
    values = sorted(g[0] for g in gens)
    if gcd(*values) != 1:
        raise ValueError(f"generators {values} do not have gcd 1")
    bound = values[0] * values[-1] + 1
    member = [False] * (bound + 1)
    member[0] = True
    for v in range(1, bound + 1):
        member[v] = any(v >= g and member[v - g] for g in values)
    return {v for v in range(bound + 1) if not member[v]}


def numerical_symmetric(gens):
    """Symmetry of a numerical semigroup about its Frobenius number."""
    gaps = numerical_gaps(gens)
    if not gaps:
        return True
    frob = max(gaps)
    return all((x in gaps) != (frob - x in gaps) for x in range(frob + 1))


def taylor_euler_matches(gens, betti_multi, probe):
    """Check the alternating-sum identity at multidegree ``probe``:
    the Taylor complex strand and the minimal strand both resolve the
    ideal's Hilbert function value there."""
    gens = [tuple(g) for g in gens]
    taylor = 0
    for size in range(1, len(gens) + 1):
        for subset in combinations(gens, size):
            join = tuple(max(col) for col in zip(*subset))
            if all(a <= b for a, b in zip(join, probe)):
                taylor += (-1) ** (size + 1)
    minimal = 0
    for (i, b), rank in betti_multi.items():
        if all(a <= c for a, c in zip(b, probe)):
            minimal += (-1) ** i * rank
    in_ideal = int(any(all(g[k] <= probe[k] for k in range(len(probe)))
                       for g in gens))
    return taylor == minimal == in_ideal


def _compositions(total, parts):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def monomial_count_in_degree(gens, num_vars, total):
    """Number of monomials of total degree ``total`` in ``num_vars``
    variables divisible by some monomial with an exponent in ``gens``."""
    if total < 0:
        return 0
    return sum(1 for a in _compositions(total, num_vars)
               if any(all(g[k] <= a[k] for k in range(num_vars))
                      for g in gens))


def degree_counts_tuples(gens, t_max):
    """Number of distinct sums of exactly t vectors of ``gens``, for
    t = 0..t_max, by adding tuples."""
    layer = {(0,) * len(gens[0])}
    counts = [1]
    for _ in range(t_max):
        layer = {tuple(a + b for a, b in zip(x, g))
                 for x in layer for g in gens}
        counts.append(len(layer))
    return counts


def reference_smith_normal_form(mat):
    """``(U, D, V)`` with ``U @ mat @ V == D``, U and V unimodular, D the
    Smith form: the package's elimination with its left transform kept."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    D = [list(r) for r in mat]
    U = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_add(m, i, src, q):
        m[i] = [a + q * b for a, b in zip(m[i], m[src])]

    def col_swap(t, j):
        for m in (D, V):
            for row in m:
                row[t], row[j] = row[j], row[t]

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
        U[t], U[piv[0]] = U[piv[0]], U[t]
        col_swap(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                while D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    row_add(D, i, t, -q)
                    row_add(U, i, t, -q)
                    if D[i][t]:
                        D[t], D[i] = D[i], D[t]
                        U[t], U[i] = U[i], U[t]
                        dirty = True
            for j in range(t + 1, ncols):
                while D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    for m in (D, V):
                        for row in m:
                            row[j] -= q * row[t]
                    if D[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            bad = next((i for i in range(t + 1, nrows)
                        if any(D[i][j] % D[t][t] for j in range(t + 1, ncols))),
                       None)
            if bad is None:
                break
            row_add(D, t, bad, 1)
            row_add(U, t, bad, 1)
        if D[t][t] < 0:
            D[t] = [-a for a in D[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return U, D, V


def reference_hermite_normal_form(rows):
    """Lower-triangular row HNF by repeated pivot passes: an upper-echelon
    HNF (pivots positive, entries above a pivot in ``[0, pivot)``) of the
    column-reversed matrix, mirrored back."""
    A = [list(row)[::-1] for row in rows]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    r = 0
    for j in range(ncols):
        if r == nrows:
            break
        while True:
            piv = None
            for i in range(r, nrows):
                if A[i][j] != 0 and (piv is None or abs(A[i][j]) < abs(A[piv][j])):
                    piv = i
            if piv is None:
                break
            A[r], A[piv] = A[piv], A[r]
            again = False
            for i in range(r + 1, nrows):
                if A[i][j]:
                    q = A[i][j] // A[r][j]
                    A[i] = [x - q * y for x, y in zip(A[i], A[r])]
                    if A[i][j]:
                        again = True
            if not again:
                if A[r][j] < 0:
                    A[r] = [-x for x in A[r]]
                for k in range(r):
                    q = A[k][j] // A[r][j]
                    A[k] = [x - q * y for x, y in zip(A[k], A[r])]
                r += 1
                break
    return [row[::-1] for row in A[:r]][::-1]


def reference_module_search(semigroup):
    """The package's earlier module-generator search, on tuples: a heap of
    ``(sum, x, numerators, label)`` and a tuple dominance test at pop time.
    Returns ``(module_generators(), module_generator_cosets())``."""
    frame = semigroup.frame()
    group = semigroup.quotient()
    factors = group.invariant_factors
    extras = [(sum(g), g, frame.numerators(g), group.project(g))
              for g in semigroup.generators if g not in frame.elements]
    zero = (0,) * semigroup.ambient_dim
    heap = [(0, zero, (0,) * frame.dim, (0,) * len(factors))]
    seen = {zero}
    kept = {}
    result = []
    add, le, mod = operator.add, operator.le, operator.mod
    while heap:
        total, x, num, label = heapq.heappop(heap)
        coset = kept.setdefault(label, [])
        if any(all(map(le, m, num)) for _, m in coset):
            continue
        coset.append((x, num))
        result.append(x)
        for sb, b, nb, lb in extras:
            y = tuple(map(add, x, b))
            if y not in seen:
                seen.add(y)
                heapq.heappush(heap, (
                    total + sb, y, tuple(map(add, num, nb)),
                    tuple(map(mod, map(add, label, lb), factors))))
    return tuple(result), tuple(
        (label, tuple(members)) for label, members in kept.items())


def _ref_vkey(v):
    return (sum(v), v)


def reference_decompose(semigroup):
    """The package's earlier per-summand decomposition loop: exponents by
    one exact division per coordinate, each shift by subtracting its frame
    combination, each degree from the minima."""
    from monoalg.decomposition import Decomposition, MonomialIdeal, Summand

    def exact(a, p):
        q, r = divmod(a, p)
        if r:
            raise InternalError(f"{a} is not a multiple of {p}")
        return q

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
        gens = [tuple(exact(a - lo, p) for a, lo, p in zip(num, mins, dens))
                for num in nums]
        ideal = MonomialIdeal(frame.dim, tuple(sorted(gens, key=_ref_vkey)))
        shift = tuple(c - sum(e * f[i] for e, f in zip(gens[0], frame.elements))
                      for i, c in enumerate(members[0][0]))
        degree = exact(sum(lo * (common // p) for lo, p in zip(mins, dens)),
                       common) if semigroup.is_homogeneous else None
        summands.append(Summand(label, tuple(x for x, _ in members), nums,
                                shift, ideal, degree))
    return Decomposition(frame, group.order, group.invariant_factors,
                         tuple(summands))


def reference_full_report(semigroup, dec):
    """The package's earlier ``full_report``: five separate tests, each
    with its own scan, Gorenstein repeating the Cohen-Macaulay one, and the
    maximal ideal recognised by its set of unit vectors."""
    from monoalg.properties import PropertyReport

    dens = dec.frame.denominators

    def is_maximal(ideal):
        n = ideal.num_vars
        return set(ideal.gens) == {tuple(int(i == k) for i in range(n))
                                   for k in range(n)}

    def lambda_scan(strict):
        bad = [(x, num) for s in dec.summands
               for x, num in zip(s.gamma, s.gamma_numerators)
               if any(a > p if strict else a >= p for a, p in zip(num, dens))]
        if not bad:
            return True, None
        x, num = min(bad, key=lambda item: _ref_vkey(item[0]))
        return False, {"element": x,
                       "lambda": tuple(map(str, map(Fraction, num, dens)))}

    def first_bad_ideal(bad):
        hits = [s for s in dec.summands if bad(s.ideal)]
        if not hits:
            return None
        s = min(hits, key=lambda s: _ref_vkey(s.shift))
        return {"coset": s.coset, "shift": s.shift, "ideal": s.ideal}

    def cohen_macaulay():
        witness = first_bad_ideal(lambda i: not i.is_unit)
        return witness is None, witness

    def buchsbaum():
        witness = first_bad_ideal(lambda i: not (i.is_unit or is_maximal(i)))
        if witness is not None:
            return False, {"kind": "ideal", **witness}
        tops = sorted((s.shift for s in dec.summands if is_maximal(s.ideal)),
                      key=_ref_vkey)
        frame_set = set(dec.frame.elements)
        extras = sorted((g for g in semigroup.generators
                         if g not in frame_set), key=_ref_vkey)
        for h in tops:
            for c in extras:
                total = tuple(a + b for a, b in zip(h, c))
                if total in tops:
                    return False, {"kind": "sum", "h": h, "c": c, "sum": total}
        return True, None

    def gorenstein():
        cm, witness = cohen_macaulay()
        if not cm:
            return False, {"kind": "ideal", **witness}
        shifts = sorted((s.shift for s in dec.summands), key=_ref_vkey)
        top_sum = max(sum(h) for h in shifts)
        tied = [h for h in shifts if sum(h) == top_sum]
        if len(tied) > 1:
            return False, {"kind": "tie", "elements": tuple(tied)}
        remaining = set(shifts)
        while remaining:
            h = min(remaining, key=_ref_vkey)
            partner = tuple(a - b for a, b in zip(tied[0], h))
            if partner not in remaining:
                return False, {"kind": "unpaired", "element": h,
                               "partner": partner}
            remaining.discard(h)
            remaining.discard(partner)
        return True, None

    found = {"seminormal": lambda_scan(True), "normal": lambda_scan(False),
             "cohen_macaulay": cohen_macaulay(), "buchsbaum": buchsbaum(),
             "gorenstein": gorenstein()}
    return PropertyReport(
        **{name: holds for name, (holds, _) in found.items()},
        witnesses={name: w for name, (_, w) in found.items()})


def reference_lcm_lattice(ideal):
    """The package's earlier lcm lattice: joins of the frontier with every
    generator until nothing new appears, sorted by (coordinate sum, lex)."""
    gens = list(ideal.gens)
    lattice = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for a in frontier:
            for g in gens:
                j = tuple(max(x, y) for x, y in zip(a, g))
                if j not in lattice:
                    new.add(j)
        lattice |= new
        frontier = new
    return sorted(lattice, key=_ref_vkey)


def _upper_koszul_faces(ideal: MonomialIdeal, b: Vec) -> list[tuple[int, ...]]:
    """The package's ``homology._upper_koszul_faces``: the faces of K^b,
    each support subset sigma of b with x^(b - sigma) in the ideal."""
    n = range(ideal.num_vars)
    support = [k for k in n if b[k] >= 1]
    faces = []
    for mask in range(1 << len(support)):
        sigma = tuple(support[i] for i in range(len(support)) if mask >> i & 1)
        reduced = tuple(b[k] - (1 if k in sigma else 0) for k in n)
        if ideal.contains(reduced):
            faces.append(sigma)
    return faces


def _reduced_homology_dims(faces: list[tuple[int, ...]], char: int) -> dict[int, int]:
    """Reduced homology ranks of a simplicial complex containing the empty
    face, keyed by dimension (-1 for the empty face): the package's
    ``homology._reduced_homology_dims``, with ranks from :func:`brute_rank`."""
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for fs in by_dim.values():
        fs.sort()
    top = max(by_dim)
    index = {dim: {f: i for i, f in enumerate(fs)}
             for dim, fs in by_dim.items()}

    def boundary_rank(dim: int) -> int:
        # rank of the map from dim-faces to (dim-1)-faces
        if dim not in by_dim or (dim - 1) not in by_dim:
            return 0
        cols = by_dim[dim]
        rows = by_dim[dim - 1]
        mat = [[0] * len(cols) for _ in rows]
        for j, face in enumerate(cols):
            for drop in range(len(face)):
                sub = face[:drop] + face[drop + 1:]
                mat[index[dim - 1][sub]][j] = -1 if drop % 2 else 1
        return brute_rank(mat, char)

    ranks = {dim: boundary_rank(dim) for dim in range(0, top + 2)}
    dims = {}
    for dim in range(-1, top + 1):
        h = len(by_dim.get(dim, ())) - ranks.get(dim, 0) - ranks.get(dim + 1, 0)
        if h < 0:
            raise InternalError(f"homology rank {h} in dimension {dim}")
        if h > 0:
            dims[dim] = h
    return dims


def reference_betti_table(ideal, char=0):
    """The package's earlier ``betti_multigraded`` loop, with no homology
    memo and no one-facet shortcut: the faces of every point of
    :func:`reference_lcm_lattice` are built and their homology computed
    anew.  Returns the table summed by total degree."""
    from monoalg.homology import BettiTable, check_characteristic

    check_characteristic(char)
    if ideal.is_unit:
        return BettiTable({(0, 0): 1})
    entries = {}
    for b in reference_lcm_lattice(ideal):
        faces = _upper_koszul_faces(ideal, b)
        if () not in faces:  # x^b itself lies in the ideal
            raise InternalError(f"lcm {b} is outside the ideal")
        for dim, h in _reduced_homology_dims(faces, char).items():
            i = dim + 1
            if i >= ideal.num_vars:
                raise InternalError(f"Betti number in index {i} > pd bound")
            entries[(i, sum(b))] = entries.get((i, sum(b)), 0) + h
    return BettiTable(entries)
