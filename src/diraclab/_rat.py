"""Small exact linear algebra over Fraction matrices (lists of lists)."""

from __future__ import annotations

from fractions import Fraction


def mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def rref(a):
    """Reduced row echelon form; returns (rref matrix, pivot columns)."""
    a = [row[:] for row in a]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def rank(a):
    if not a:
        return 0
    return len(rref(a)[1])


def nullspace(a):
    """Basis (list of vectors) of the kernel of a."""
    m = len(a)
    n = len(a[0]) if m else 0
    red, pivots = rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a, b):
    """One solution x of a x = b, or None if inconsistent."""
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [a[i][:] + [Fraction(b[i])] for i in range(m)]
    red, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return x


def in_span(columns, v):
    """Is v in the column span of the given column list?"""
    if not columns:
        return all(x == 0 for x in v)
    a = transpose(columns)
    return solve(a, v) is not None


def span_equal(cols_a, cols_b):
    ra = rank(transpose(cols_a)) if cols_a else 0
    rb = rank(transpose(cols_b)) if cols_b else 0
    if ra != rb:
        return False
    joint = rank(transpose(cols_a + cols_b)) if (cols_a or cols_b) else 0
    return joint == ra


def span_intersection(cols_a, cols_b):
    """Basis of span(cols_a) ∩ span(cols_b)."""
    if not cols_a or not cols_b:
        return []
    # x in both spans: A s = B t; kernel of [A | -B] gives (s, t)
    a = transpose(cols_a)
    b = transpose(cols_b)
    m = len(a)
    na, nb = len(cols_a), len(cols_b)
    block = [a[i] + [-x for x in b[i]] for i in range(m)]
    out = []
    for k in nullspace(block):
        s = k[:na]
        v = [sum(cols_a[j][i] * s[j] for j in range(na)) for i in range(m)]
        if any(x != 0 for x in v):
            out.append(v)
    # reduce to an independent set
    basis = []
    for v in out:
        if not in_span(basis, v):
            basis.append(v)
    return basis
