"""Divisors on metric graphs: finitely supported formal sums of points.

Coefficients are exact.  Genuine divisors have integer coefficients;
Laplacians of piecewise-linear functions with non-integer slopes are
also representable (their coefficients are Fractions), and
``is_integral`` distinguishes the two.  Integral Fractions are
normalized to int so that coefficient equality is exact across routes.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Mapping, Tuple, Union

from .errors import NonIntegralError
from .graphs import GraphPoint, PointLike, as_point, as_rational

Coeff = Union[int, Fraction]


def _norm(c: Coeff) -> Coeff:
    if type(c) is int:
        return c
    c = as_rational(c, "divisor coefficient")
    return c.numerator if c.denominator == 1 else c


class GraphDivisor:
    """A formal sum ``sum c_p * (p)`` over GraphPoints, zero-free."""

    __slots__ = ("_support",)

    def __init__(self, support: Mapping[PointLike, Coeff] = ()):
        cleaned = {}
        items = support.items() if hasattr(support, "items") else support
        for p, c in items:
            p = as_point(p)
            c = _norm(c)
            if c != 0:
                cleaned[p] = cleaned.get(p, 0) + c
        object.__setattr__(self, "_support", {p: c for p, c in cleaned.items() if c != 0})

    @classmethod
    def _clean(cls, support: Mapping[GraphPoint, Coeff]) -> "GraphDivisor":
        """A divisor from distinct GraphPoints and int or Fraction
        coefficients: zeros dropped, integral Fractions made int."""
        d = object.__new__(cls)
        object.__setattr__(d, "_support", {p: c.numerator if c.denominator == 1 else c
                                           for p, c in support.items() if c})
        return d

    def __setattr__(self, *args):
        raise AttributeError("GraphDivisor is immutable")

    def __reduce__(self):
        return GraphDivisor, (dict(self._support),)

    @staticmethod
    def at(p: PointLike, coeff: Coeff = 1) -> "GraphDivisor":
        return GraphDivisor({as_point(p): coeff})

    @property
    def support(self) -> Tuple[GraphPoint, ...]:
        return tuple(sorted(self._support, key=GraphPoint.sort_key))

    def items(self):
        return tuple((p, self._support[p]) for p in self.support)

    def coeff(self, p: PointLike) -> Coeff:
        return self._support.get(as_point(p), 0)

    def __bool__(self):
        return bool(self._support)

    @property
    def degree(self) -> Coeff:
        return _norm(sum(self._support.values(), Fraction(0)))

    def is_effective(self) -> bool:
        return all(c > 0 for c in self._support.values())

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self._support.values())

    def require_integral(self, what: str = "divisor") -> "GraphDivisor":
        if not self.is_integral():
            raise NonIntegralError(f"{what} has non-integer coefficients: {self}")
        return self

    # -- arithmetic ------------------------------------------------------

    def _combine(self, other: "GraphDivisor", op) -> "GraphDivisor":
        merged = dict(self._support)
        for p, c in other._support.items():
            merged[p] = op(merged.get(p, 0), c)
        return GraphDivisor._clean(merged)

    def __add__(self, other: "GraphDivisor") -> "GraphDivisor":
        return self._combine(other, operator.add)

    def __sub__(self, other: "GraphDivisor") -> "GraphDivisor":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "GraphDivisor":
        return GraphDivisor._clean({p: -c for p, c in self._support.items()})

    def __rmul__(self, k: Coeff) -> "GraphDivisor":
        k = as_rational(k, "divisor multiplier")
        return GraphDivisor._clean({p: k * c for p, c in self._support.items()})

    def __ge__(self, other: "GraphDivisor") -> bool:
        """Coefficient-wise domination."""
        points = set(self._support) | set(other._support)
        return all(self.coeff(p) >= other.coeff(p) for p in points)

    def __eq__(self, other):
        return isinstance(other, GraphDivisor) and self._support == other._support

    def __hash__(self):
        return hash(frozenset(self._support.items()))

    def restrict(self, keep) -> "GraphDivisor":
        """Sub-divisor of the points for which ``keep(point)`` is true."""
        return GraphDivisor._clean({p: c for p, c in self._support.items() if keep(p)})

    def vertex_part(self) -> "GraphDivisor":
        return self.restrict(lambda p: p.kind == "vertex")

    def __repr__(self):
        if not self._support:
            return "GraphDivisor(0)"
        bits = []
        for p in self.support:
            c = self._support[p]
            if p.kind == "vertex":
                tag = p.where
            elif p.kind == "edge":
                tag = f"{p.where}[{p.offset}]"
            else:
                tag = f"{p.where}({p.offset})"
            bits.append(f"{c:+}*({tag})" if isinstance(c, int) else f"({c})*({tag})")
        return "GraphDivisor(" + " ".join(bits) + ")"

