"""JSON codecs for the shared tensor and map formats.

Tensor format (shared by all modules and the CLI); indices are 1-based:

    {"chart": n, "degree": k, "kind": "vector"|"form",
     "components": [{"idx": [i1,...,ik],
                     "poly": [{"exp": [e1,...,en], "num": int, "den": int}]}]}

Every decoder reports malformed input (a missing key, a value of the wrong
type, such as 2.5 or "2" for an integer, a zero denominator, an infinite or
overflowing number, a dimension above MAX_DIM) as ShapeError, exit code 2 in the CLI.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import ShapeError
from .fields import Chart, PolyKForm, PolyKVector, PolyMap, PolyScalar, accumulate

MAX_DIM = 64  # the largest dimension an input may declare: a chart builds per-coordinate data


def decoder(fn):
    """Turn the Python errors malformed JSON data raises into ShapeError."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (KeyError, ValueError, TypeError, ArithmeticError) as e:
            raise ShapeError(f"malformed input for {fn.__name__}: {type(e).__name__}: {e}") from e

    return wrapped


def integer(value, key: str) -> int:
    """A JSON integer, the value of `key`; a bool, float or string is refused."""
    if type(value) is not int:  # bool is a subclass of int
        raise ShapeError(f"{key} must be an integer, got {value!r}")
    return value


def dimension(data, key: str) -> int:
    """data[key] as a dimension, refused above MAX_DIM before anything is built."""
    if (n := integer(data[key], key)) > MAX_DIM:
        raise ShapeError(f"{key} {n} exceeds the dimension cap {MAX_DIM}")
    return n


def poly_to_json(p: PolyScalar) -> list:
    return [
        {"exp": list(exp), "num": c.numerator, "den": c.denominator}
        for exp, c in p.sorted_terms()
    ]


@decoder
def poly_from_json(chart: Chart, data) -> PolyScalar:
    terms = {}
    for t in data:
        exp = tuple(integer(e, "exp") for e in t["exp"])
        accumulate(terms, exp, Fraction(integer(t["num"], "num"), integer(t.get("den", 1), "den")))
    return PolyScalar(chart, terms)


def tensor_to_json(T) -> dict:
    kind = "vector" if isinstance(T, PolyKVector) else "form"
    comps = []
    for idx in sorted(T.components):
        comps.append(
            {"idx": [i + 1 for i in idx], "poly": poly_to_json(T.components[idx])}
        )
    return {"chart": T.chart.dim, "degree": T.degree, "kind": kind, "components": comps}


@decoder
def tensor_from_json(data, chart: Chart | None = None):
    n = dimension(data, "chart")
    if chart is None:
        chart = Chart(n)
    elif chart.dim != n:
        raise ShapeError(f"tensor declares chart dim {n}, expected {chart.dim}")
    k = integer(data["degree"], "degree")
    kind = data.get("kind", "vector")
    if kind not in ("vector", "form"):
        raise ShapeError(f"tensor kind must be 'vector' or 'form', got {kind!r}")
    cls = PolyKVector if kind == "vector" else PolyKForm
    comps = {}
    for c in data.get("components", []):
        idx = tuple(integer(i, "idx") - 1 for i in c["idx"])
        comps[idx] = poly_from_json(chart, c["poly"])
    return cls(chart, k, comps)


@decoder
def map_from_json(data) -> PolyMap:
    src = Chart(dimension(data, "source"))
    tgt = Chart(dimension(data, "target"))
    comps = [poly_from_json(src, c) for c in data["components"]]
    return PolyMap(src, tgt, comps)


@decoder
def rational_from_json(v) -> Fraction:
    """Accepts int, [num, den], or {"num":, "den":}."""
    if isinstance(v, bool):
        raise ShapeError("boolean is not a rational")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return Fraction(integer(v[0], "num"), integer(v[1], "den"))
    if isinstance(v, dict):
        return Fraction(integer(v["num"], "num"), integer(v.get("den", 1), "den"))
    raise ShapeError(f"cannot parse rational from {v!r}")


def rational_to_json(x: Fraction):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]


@decoder
def constants_from_entries(entries) -> dict:
    """Structure constants {(i, j, k): value}, 0-based, from 1-based JSON entries
    {"a": i, "b": j, "c": k, "value": rational}, each listed once.  The caller
    normalizes them (`poisson.normalize_structure_constants`)."""
    c: dict = {}
    for entry in entries:
        key = tuple(integer(entry[x], x) - 1 for x in "abc")
        if key in c:
            raise ShapeError(f"structure constant {tuple(i + 1 for i in key)} listed twice")
        c[key] = rational_from_json(entry["value"])
    return c
