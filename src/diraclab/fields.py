"""Exterior calculus with exact polynomial coefficients on coordinate charts.

Coefficients are exact rationals, so algebraic identities are decided
exactly: a bracket or differential either is the zero polynomial or it is
not.  A polynomial stores integer numerators over one positive denominator,
keyed by packed exponents (see `PolyScalar`).  This is the only module that
reads or writes exponents: other modules move polynomials between charts
with ``embed``/``restrict``, split them by degree with ``homogeneous_parts``
and hand them to the numeric layer through ``float_terms``.  A key becomes an
exponent tuple through its chart's one unpacker, the ``struct.Struct``
``Chart._exps`` built with the chart, which ``terms``, ``float_terms``,
``homogeneous_parts``, ``evaluate_exact`` and ``compose`` share.
``PolyScalar.terms`` is the read-only ``{exponent tuple: fractions.Fraction}``
view, kept for readers outside the package.  The module computes no float
and imports neither numpy nor the numeric layer: floating point enters only
through ``float_terms``, which `_numeric.PackedPolys` alone reads, for a
polynomial and for its partials.

Conventions used throughout the package:

* multivector and form components are stored on strictly increasing index
  tuples; any other input order is sign-normalized,
* the canonical term order of a polynomial is graded lexicographic
  (total degree first, ties broken lexicographically),
* equality is structural equality of canonical forms.

Everything here is immutable after construction; all operations are pure
functions and safe to share between threads.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import ChartMismatchError, DegreeError, ShapeError

Rat = Union[int, Fraction]

# A monomial is one int: the exponent of x_i sits in bits [_W*i, _W*i + _W).
# The top bit of each field is a guard that no stored exponent sets, so a
# product (a key sum) that overflows a field sets it instead of carrying into
# the next field.
_W = 16
_FIELD = (1 << _W) - 1
MAX_EXPONENT = (1 << (_W - 1)) - 1


def _pack(exp) -> int:
    return sum(e << (_W * i) for i, e in enumerate(exp))


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def sort_index(idx: Sequence[int]):
    """Sort an index tuple, returning (sorted tuple, sign) or (None, 0) on repeats."""
    if len(idx) < 2:  # already sorted, with no repeat
        return tuple(idx), 1
    idx = list(idx)
    sign = 1
    # insertion sort; counts transpositions
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


def accumulate(acc: dict, key, value) -> None:
    """acc[key] += value, removing the key when the sum is zero.

    Values are ints, Fractions or PolyScalars (all falsy exactly when zero).
    """
    cur = acc.get(key)
    s = value if cur is None else cur + value
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def _collect_signed(buckets: dict, idx: tuple, sign: int, a, b, d=None) -> None:
    """File the `sum_of_products` term (sign, a, b, d) under a sorted antisymmetric
    index for `_sum_buckets`; an index with a repeat contributes nothing.  A
    one-index tuple is filed as it is: it is sorted and has no repeat."""
    if len(idx) != 1:
        idx, s = sort_index(idx)
        if idx is None:
            return
        sign *= s
    buckets.setdefault(idx, []).append((sign, a, b, d))


def _sum_buckets(chart: Chart, buckets: dict) -> dict:
    """{index: [(sign, a, b, d), ...]} -> {index: nonzero sum_of_products}."""
    sums = {idx: sum_of_products(chart, products) for idx, products in buckets.items()}
    return {idx: p for idx, p in sums.items() if p}


def _integer_row(v) -> list:
    """A rational vector times the lcm of its denominators: integers, same span."""
    m = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (m // x.denominator) for x in v]


def _echelon(vectors, reduced: bool = False):
    """Integer rows spanning the rational vectors, in echelon form by fraction-free
    (Bareiss) elimination, and their pivot columns.  Each vector is scaled to
    integers by the lcm of its denominators, each update divides exactly by the
    previous pivot, and zero columns are skipped; reduced=True also clears each
    pivot column above its pivot (fraction-free Gauss-Jordan)."""
    rows = [row for row in map(_integer_row, vectors) if any(row)]
    pivots, prev = [], 1
    for c in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top, p = rows[rank], rows[rank][c]
        for i in (i for i in range(0 if reduced else rank + 1, len(rows)) if i != rank):
            a = rows[i][c]
            rows[i] = [(p * x - a * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[:len(pivots)], pivots


def _rank(vectors) -> int:
    """Rank of a list of rational vectors (see `_echelon`)."""
    return len(_echelon(vectors)[1])


def _span_test(basis):
    """v -> whether v lies in the span of the rational basis: p v = sum_i v[c_i] R_i for the
    rows R_i, pivot columns c_i and shared pivot p of its one reduced `_echelon`."""
    R, pivots = _echelon(basis, reduced=True)
    p = R[0][pivots[0]] if R else 1
    return lambda v: all(p * x == sum(v[c] * row[j] for c, row in zip(pivots, R))
                         for j, x in enumerate(v))


def _kernel(rows, n: int) -> dict:
    """{f: x} over the free (non-pivot) columns f of the rational matrix with
    these rows and n columns: x solves M x = 0, x_f = 1 and every other free x_g = 0."""
    R, pivots = _echelon(rows, reduced=True)
    at = dict(zip(pivots, R))  # pivot column -> its row
    return {f: [Fraction(-at[c][f], at[c][c]) if c in at else int(c == f) for c in range(n)]
            for f in range(n) if f not in at}


class Chart:
    """A coordinate chart on R^n, identified by dimension and coordinate names.

    ``dim == 0`` is permitted and denotes a point (all polynomials are
    constants); it is needed to treat Lie algebras as the rank-only case of
    the algebroid dictionary.
    """

    __slots__ = ("dim", "names", "_guard", "_exps")

    def __init__(self, dim: int, names: Sequence[str] | None = None):
        if dim < 0:
            raise ShapeError("chart dimension must be >= 0")
        if names is None:
            names = tuple(f"x{i+1}" for i in range(dim))
        else:
            names = tuple(names)
        if len(names) != dim:
            raise ShapeError(f"chart of dim {dim} got {len(names)} names")
        if len(set(names)) != dim:
            raise ShapeError("coordinate names must be unique")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_guard", sum(1 << (_W * i + _W - 1) for i in range(dim)))
        # the exponent unpacker: the little-endian bytes of a packed key, one "H" per field
        object.__setattr__(self, "_exps", struct.Struct(f"<{dim}H"))  # "H": _W = 16 bits

    def __setattr__(self, *a):
        raise AttributeError("Chart is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Chart)
            and self.dim == other.dim
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.dim, self.names))

    def __repr__(self):
        return f"Chart({self.dim}, {list(self.names)})"

    def coordinate(self, i: int) -> "PolyScalar":
        """The coordinate function x_i (0-based index)."""
        if not 0 <= i < self.dim:
            raise ShapeError(f"coordinate index {i} out of range for dim {self.dim}")
        return PolyScalar._canonical(self, {1 << (_W * i): 1})

    def coordinates(self):
        return tuple(self.coordinate(i) for i in range(self.dim))


def cotangent_chart(n: int) -> Chart:
    """Chart (q1..qn, p1..pn) used for realizations on T*R^n."""
    names = tuple(f"q{i+1}" for i in range(n)) + tuple(f"p{i+1}" for i in range(n))
    return Chart(2 * n, names)


def grlex_key(exp):
    return (sum(exp), exp)


class PolyScalar:
    """A polynomial with exact rational coefficients on a chart.

    Canonical form: ``_num`` maps packed exponents (`_pack`) to nonzero int
    numerators over the one positive denominator ``_den``, and no integer
    > 1 divides ``_den`` and every numerator.  That form is unique, so
    structural equality is polynomial equality.  ``terms`` is the read-only
    ``{exponent tuple: Fraction}`` view, built on demand.
    """

    __slots__ = ("chart", "_num", "_den")

    def __init__(self, chart: Chart, terms: Mapping[tuple, Rat] | None = None):
        clean = {}
        if terms:
            for exp, c in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != chart.dim or any(e < 0 for e in exp):
                    raise ShapeError(f"bad exponent {exp} for chart of dim {chart.dim}")
                if any(e > MAX_EXPONENT for e in exp):
                    raise DegreeError(f"exponent {exp} exceeds {MAX_EXPONENT}")
                accumulate(clean, _pack(exp), _frac(c))
        # over the lcm of reduced denominators the numerators share no factor with it
        den = math.lcm(*(c.denominator for c in clean.values()))
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "_num", {k: c.numerator * (den // c.denominator)
                                          for k, c in clean.items()})
        object.__setattr__(self, "_den", den)

    @staticmethod
    def _canonical(chart: Chart, num: dict, den: int = 1) -> "PolyScalar":
        """Wrap nonzero int numerators on valid packed keys over a positive
        denominator, as every ring and calculus operation produces them, and
        divide out their common factor once; outside input goes through the
        validating constructor."""
        if den != 1:
            g = math.gcd(den, *num.values())  # den itself when num is empty
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        p = object.__new__(PolyScalar)
        _set_chart(p, chart)
        _set_num(p, num)
        _set_den(p, den)
        return p

    def __setattr__(self, *a):
        raise AttributeError("PolyScalar is immutable")

    @property
    def terms(self) -> dict:
        """The coefficients as a ``{exponent tuple: Fraction}`` dict, built on
        each call."""
        exps, den = self.chart._exps, self._den
        unpack, size = exps.unpack, exps.size
        return {unpack(k.to_bytes(size, "little")): Fraction(v) if den == 1 else Fraction(v, den)
                for k, v in self._num.items()}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "PolyScalar":
        return PolyScalar._canonical(chart, {})

    @staticmethod
    def constant(chart: Chart, c: Rat) -> "PolyScalar":
        c = _frac(c)
        return PolyScalar._canonical(chart, {0: c.numerator} if c else {}, c.denominator)

    # -- ring structure ------------------------------------------------------

    def _check(self, other):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatchError(f"{self.chart} vs {other.chart}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyScalar.constant(self.chart, other)
        self._check(other)
        if self._den == other._den:  # no rescaled copy of self
            den, num, f2 = self._den, dict(self._num), 1
        else:
            den = math.lcm(self._den, other._den)
            f1, f2 = den // self._den, den // other._den
            num = {k: v * f1 for k, v in self._num.items()}
        for k, v in other._num.items():
            num[k] = num.get(k, 0) + v * f2
        return PolyScalar._canonical(self.chart, {k: v for k, v in num.items() if v}, den)

    __radd__ = __add__

    def __neg__(self):
        return PolyScalar._canonical(self.chart, {k: -v for k, v in self._num.items()}, self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyScalar.constant(self.chart, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            num = {k: v * c.numerator for k, v in self._num.items()} if c else {}
            return PolyScalar._canonical(self.chart, num, self._den * c.denominator)
        if not isinstance(other, PolyScalar):
            return NotImplemented
        self._check(other)
        return sum_of_products(self.chart, ((1, self, other, None),))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = PolyScalar.constant(self.chart, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            if k := k >> 1:  # no square past the last bit: it could pass the guard
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyScalar.constant(self.chart, other)
        return (
            isinstance(other, PolyScalar)
            and self._den == other._den
            and self._num == other._num
            and self.chart == other.chart
        )

    def __hash__(self):
        return hash((self.chart, self._den, frozenset(self._num.items())))

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def sorted_terms(self):
        """Terms in descending graded-lex order (the canonical listing)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def float_terms(self, d: int | None = None) -> list:
        """(exponent tuple, coefficient) pairs of the polynomial, or with d of its
        partial in x_d as `partial(d).float_terms()` lists them, each coefficient
        correctly rounded to a float, as float(Fraction) rounds it; the int
        division e * v / den rounds the exact quotient, reduced or not."""
        exps, den = self.chart._exps, self._den
        unpack, size = exps.unpack, exps.size
        if d is None:
            return [(unpack(k.to_bytes(size, "little")), v / den) for k, v in self._num.items()]
        shift = _W * d
        one = 1 << shift
        return [(unpack((k - one).to_bytes(size, "little")), e * v / den)
                for k, v in self._num.items() if (e := (k >> shift) & _FIELD)]

    # -- charts and degrees ----------------------------------------------------

    def embed(self, chart: Chart) -> "PolyScalar":
        """The same polynomial in the first coordinates of a chart of at least
        this dimension."""
        if chart.dim < self.chart.dim:
            raise ShapeError(f"cannot embed dim {self.chart.dim} into dim {chart.dim}")
        return PolyScalar._canonical(chart, self._num, self._den)

    def restrict(self, chart: Chart) -> "PolyScalar":
        """The reverse of `embed`: the polynomial on the first chart.dim
        coordinates; DegreeError if a dropped coordinate occurs."""
        if chart.dim > self.chart.dim:
            raise ShapeError(f"cannot restrict dim {self.chart.dim} to dim {chart.dim}")
        shift = _W * chart.dim
        if any(k >> shift for k in self._num):
            raise DegreeError(f"{self!r} depends on a coordinate past the first {chart.dim}")
        return PolyScalar._canonical(chart, self._num, self._den)

    def homogeneous_parts(self, first: int = 0) -> dict:
        """{d: the part of degree d in the coordinates first, first + 1, ...};
        the parts sum to the polynomial, and the zero polynomial has none."""
        if not 0 <= first <= self.chart.dim:
            raise ShapeError(f"first coordinate {first} out of range for dim {self.chart.dim}")
        exps = self.chart._exps
        unpack, size = exps.unpack, exps.size
        parts: dict = {}
        for k, v in self._num.items():
            parts.setdefault(sum(unpack(k.to_bytes(size, "little"))[first:]), {})[k] = v
        return {d: PolyScalar._canonical(self.chart, num, self._den) for d, num in parts.items()}

    # -- calculus ------------------------------------------------------------

    def variables(self) -> list:
        """Indices of the coordinates that occur in some term, increasing: the
        partials in any other coordinate are zero."""
        occurs = 0
        for k in self._num:
            occurs |= k
        return [i for i in range(self.chart.dim) if (occurs >> (_W * i)) & _FIELD]

    def partial(self, i: int) -> "PolyScalar":
        if not 0 <= i < self.chart.dim:
            raise ShapeError(f"partial index {i} out of range for dim {self.chart.dim}")
        return sum_of_products(self.chart, ((1, self._canonical(self.chart, {0: 1}), self, i),))

    def evaluate_exact(self, point: Sequence[Rat]) -> Fraction:
        if len(point) != self.chart.dim:
            raise ShapeError("point/chart dimension mismatch")
        pt = [_frac(x) for x in point]
        exps = self.chart._exps
        total = Fraction(0)
        for k, v in self._num.items():
            for x, e in zip(pt, exps.unpack(k.to_bytes(exps.size, "little"))):
                if e:
                    v *= x**e
            total += v
        return total / self._den

    def compose(self, polys: Sequence["PolyScalar"]) -> "PolyScalar":
        """Substitute polys[i] (all on one source chart) for the i-th coordinate."""
        if len(polys) != self.chart.dim:
            raise ShapeError("substitution list length != chart dim")
        if self.chart.dim == 0:
            raise ShapeError("cannot infer source chart for a dim-0 composition")
        src, exps = polys[0].chart, self.chart._exps
        out = PolyScalar.zero(src)
        for k, v in self._num.items():
            term = PolyScalar._canonical(src, {0: v}, self._den)
            for p, e in zip(polys, exps.unpack(k.to_bytes(exps.size, "little"))):
                if e:
                    term = term * p**e
            out = out + term
        return out

    def __repr__(self):
        if not self._num:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"{self.chart.names[i]}^{e}" if e > 1 else self.chart.names[i]
                for i, e in enumerate(exp)
                if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


# `_canonical` writes the slots through their descriptors, cheaper than object.__setattr__
_set_chart, _set_num, _set_den = (PolyScalar.__dict__[name].__set__
                                  for name in ("chart", "_num", "_den"))


def sum_of_products(chart: Chart, products: Sequence) -> PolyScalar:
    """The sum of sign * a * b, or of sign * a * db/dx_d where d is not None, over (sign,
    a, b, d) in `products` (sign +1 or -1, a and b on `chart`): the one product loop of the
    exact layer, into one numerator dict over the lcm of the denominators, normalized once.
    A derivative slot walks b's terms first, folding each exponent e > 0 of x_d into b.
    `products` is read twice, so it is a sequence (a list or tuple), not an iterator."""
    den = math.lcm(*(a._den * b._den for _, a, b, _ in products))
    acc: dict = {}
    get = acc.get
    for sign, a, b, d in products:
        scale = sign * (den // (a._den * b._den))
        outer, inner = (a._num, b._num.items()) if d is None else (b._num, a._num.items())
        one = 0 if d is None else 1 << _W * d
        for ko, vo in outer.items():
            if e := (1 if d is None else (ko >> _W * d) & _FIELD):
                ko, vo = ko - one, vo * e * scale
                for ki, vi in inner:
                    k = ko + ki
                    acc[k] = get(k, 0) + vo * vi
    if any(map(chart._guard.__and__, acc)):
        raise DegreeError(f"a product exponent exceeds {MAX_EXPONENT}")
    return PolyScalar._canonical(chart, {k: v for k, v in acc.items() if v}, den)


class _AlternatingTensor:
    """Shared skeleton of multivectors and forms.

    Components live on strictly increasing index tuples of length ``degree``;
    constructor input with arbitrary index order is sign-normalized, repeated
    indices drop out.
    """

    __slots__ = ("chart", "degree", "components")

    kind = property(type)  # PolyKVector or PolyKForm, as `expect` reads it

    def __init__(self, chart: Chart, degree: int, components=None):
        if degree < 0:
            raise DegreeError("tensor degree must be >= 0")
        if degree > chart.dim and components:
            raise DegreeError(f"degree {degree} tensor on dim {chart.dim} must be zero")
        clean: dict = {}
        if components:
            for idx, p in components.items():
                idx = tuple(int(i) for i in idx)
                if len(idx) != degree:
                    raise DegreeError(f"index {idx} has wrong length for degree {degree}")
                if any(not 0 <= i < chart.dim for i in idx):
                    raise ShapeError(f"index {idx} out of range for dim {chart.dim}")
                if not isinstance(p, PolyScalar):
                    p = PolyScalar.constant(chart, p)
                if p.chart != chart:
                    raise ChartMismatchError("component polynomial on wrong chart")
                if p:  # sign-normalized: a repeated index contributes nothing
                    idx, sign = sort_index(idx)
                    if idx is not None:
                        accumulate(clean, idx, p if sign == 1 else -p)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", clean)

    @classmethod
    def _trusted(cls, chart: Chart, degree: int, components: dict):
        """Wrap canonical components (sorted in-range indices of length `degree`,
        nonzero PolyScalars on `chart`) as the calculus here builds them;
        outside input goes through the validating constructor."""
        t = object.__new__(cls)
        object.__setattr__(t, "chart", chart)
        object.__setattr__(t, "degree", degree)
        object.__setattr__(t, "components", components)
        return t

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check(self, other):
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.chart != other.chart:
            raise ChartMismatchError(f"{self.chart} vs {other.chart}")

    def component(self, idx) -> PolyScalar:
        """Component at an arbitrary index tuple, including antisymmetry sign."""
        sidx, sign = sort_index(idx)
        if sidx is None:
            return PolyScalar.zero(self.chart)
        p = self.components.get(sidx)
        if p is None:
            return PolyScalar.zero(self.chart)
        return p if sign == 1 else -p

    def __add__(self, other):
        expect(other, type(self), self.degree, "tensor sum")
        self._check(other)
        comp = dict(self.components)
        for idx, p in other.components.items():
            accumulate(comp, idx, p)
        return self._trusted(self.chart, self.degree, comp)

    def __neg__(self):
        return self._trusted(self.chart, self.degree, {i: -p for i, p in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PolyScalar)):
            comp = {i: p * other for i, p in self.components.items()}
            return self._trusted(self.chart, self.degree, {i: p for i, p in comp.items() if p})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.chart == other.chart
            and self.degree == other.degree
            and self.components == other.components
        )

    def __hash__(self):
        return hash(
            (type(self).__name__, self.chart, self.degree, frozenset(self.components))
        )

    def is_zero(self) -> bool:
        return not self.components

    def wedge(self, other):
        """The wedge product, a test oracle: no command calls it."""
        self._check(other)
        buckets: dict = {}
        for i1, p1 in self.components.items():
            for i2, p2 in other.components.items():
                _collect_signed(buckets, i1 + i2, 1, p1, p2)
        return self._trusted(self.chart, self.degree + other.degree,
                             _sum_buckets(self.chart, buckets))

    def __repr__(self):
        kind = type(self).__name__
        if not self.components:
            return f"{kind}(deg {self.degree}, 0)"
        parts = [
            f"[{','.join(str(i + 1) for i in idx)}]: {p!r}"
            for idx, p in sorted(self.components.items())
        ]
        return f"{kind}(deg {self.degree}, {'; '.join(parts)})"


class PolyKVector(_AlternatingTensor):
    """Antisymmetric multivector field with polynomial components."""


class PolyKForm(_AlternatingTensor):
    """Differential form with polynomial components."""


def _described(kind, degree: int) -> str:
    if kind is PolyKForm:
        return f"a {degree}-form (kind=form)"
    return f"a degree-{degree} multivector (kind=vector)"


def expect(T, cls, degree: int, who: str) -> None:
    """The one kind-and-degree check of a tensor argument: T is a `cls`, PolyKVector
    or PolyKForm, of this degree, or a time family of them with this `kind` (see
    `poisson.TimePolyForm`); else DegreeError says who wanted what, and what it got."""
    kind = getattr(T, "kind", None)
    if kind is not cls or T.degree != degree:
        got = _described(kind, T.degree) if kind in (PolyKVector, PolyKForm) else (
            f"a {type(T).__name__}")
        raise DegreeError(f"{who}: expected {_described(cls, degree)}, got {got}")


def coordinate_vector(chart: Chart, i: int) -> PolyKVector:
    """The coordinate vector field d/dx_i."""
    return PolyKVector(chart, 1, {(i,): PolyScalar.constant(chart, 1)})


def coordinate_form(chart: Chart, i: int) -> PolyKForm:
    """The coordinate 1-form dx_i."""
    return PolyKForm(chart, 1, {(i,): PolyScalar.constant(chart, 1)})


def differential(f: PolyScalar) -> PolyKForm:
    """df as a 1-form."""
    return exterior_derivative(PolyKForm._trusted(f.chart, 0, {(): f} if f else {}))


def exterior_derivative(alpha: PolyKForm) -> PolyKForm:
    """Coordinate exterior derivative; satisfies d(d(alpha)) = 0 exactly."""
    chart = alpha.chart
    one = PolyScalar.constant(chart, 1)
    buckets: dict = {}
    for idx, p in alpha.components.items():
        for j in range(chart.dim):
            _collect_signed(buckets, (j,) + idx, 1, one, p, j)
    return PolyKForm._trusted(chart, alpha.degree + 1, _sum_buckets(chart, buckets))


def interior_product(X: PolyKVector, alpha: PolyKForm) -> PolyKForm:
    """Contraction of a vector field into the first slot of a form.  A test
    oracle (Cartan's formula): `_lie_terms` computes L_X without it.  A 0-form
    has no slot: the constructor refuses its degree -1."""
    expect(X, PolyKVector, 1, "interior_product")
    if X.chart != alpha.chart:
        raise ChartMismatchError("interior product across charts")
    buckets: dict = {}
    for idx, p in alpha.components.items():
        for pos, i in enumerate(idx):
            xi = X.components.get((i,))
            if xi is not None:
                buckets.setdefault(idx[:pos] + idx[pos + 1 :], []).append(
                    (-1 if pos % 2 else 1, xi, p, None))
    return PolyKForm(alpha.chart, alpha.degree - 1, _sum_buckets(alpha.chart, buckets))


def apply_vector(X: PolyKVector, f: PolyScalar) -> PolyScalar:
    """X(f) = sum_i X^i df/dx_i."""
    expect(X, PolyKVector, 1, "apply_vector")
    if X.chart != f.chart:
        raise ChartMismatchError("apply_vector across charts")
    return sum_of_products(f.chart, [(1, xi, f, i) for (i,), xi in X.components.items()])


def _lie_terms(buckets: dict, X: PolyKVector, T) -> None:
    """The one coordinate Lie-derivative pass: file the `sum_of_products` terms of L_X T,
    T a form or multivector of any degree: X^j d_j T_I at I, and from each slot pos of I,
    k = I[pos], T_I d_i X^k at I[pos->i] (form) or -T_I d_k X^j at I[pos->j] (multivector)."""
    form = isinstance(T, PolyKForm)
    for idx, t in T.components.items():
        for (j,), xj in X.components.items():
            buckets.setdefault(idx, []).append((1, xj, t, j))
            for pos, k in enumerate(idx):
                if not form:
                    _collect_signed(buckets, idx[:pos] + (j,) + idx[pos + 1:], -1, t, xj, k)
                elif k == j:
                    for i in xj.variables():
                        _collect_signed(buckets, idx[:pos] + (i,) + idx[pos + 1:], 1, t, xj, i)


def vector_bracket(X: PolyKVector, Y: PolyKVector) -> PolyKVector:
    """Lie bracket [X, Y] = L_X Y of vector fields."""
    expect(X, PolyKVector, 1, "vector_bracket")
    expect(Y, PolyKVector, 1, "vector_bracket")
    return lie_derivative(X, Y)


def lie_derivative(X: PolyKVector, T):
    """Lie derivative along a vector field: X(f) for a scalar, and one
    `_lie_terms` pass for a form or a multivector of any degree."""
    expect(X, PolyKVector, 1, "lie_derivative")
    if isinstance(T, PolyScalar):
        return apply_vector(X, T)
    if not isinstance(T, (PolyKForm, PolyKVector)):
        raise TypeError(f"cannot take Lie derivative of {type(T).__name__}")
    if X.chart != T.chart:
        raise ChartMismatchError("lie_derivative across charts")
    buckets: dict = {}
    _lie_terms(buckets, X, T)
    return T._trusted(T.chart, T.degree, _sum_buckets(T.chart, buckets))


class PolyMap:
    """A polynomial map between charts, given by target-component polynomials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Chart, target: Chart, components: Sequence[PolyScalar]):
        components = tuple(components)
        if len(components) != target.dim:
            raise ShapeError("component count must equal target dimension")
        for p in components:
            if p.chart != source:
                raise ChartMismatchError("map components must live on the source chart")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", components)

    def __setattr__(self, *a):
        raise AttributeError("PolyMap is immutable")

    def evaluate_exact(self, point):
        return tuple(p.evaluate_exact(point) for p in self.components)

    def compose_scalar(self, f: PolyScalar) -> PolyScalar:
        """Pull back a scalar on the target: f o phi."""
        if f.chart != self.target:
            raise ChartMismatchError("scalar not on the target chart")
        if self.target.dim == 0:
            return f.embed(self.source)
        return f.compose(self.components)

    def jacobian(self):
        """Symbolic Jacobian: entry [i][j] = d phi^i / dx_j on the source."""
        return [
            [p.partial(j) for j in range(self.source.dim)] for p in self.components
        ]
