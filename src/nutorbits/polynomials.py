"""Exact dense polynomial arithmetic over Z, cyclotomic polynomials, and
the symbolic singularity criteria for circulant graphs.

Coefficients are Python ints, lowest degree first, with trailing zeros
trimmed (the zero polynomial has an empty coefficient tuple).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable

from .graphs import CirculantSpec


class IntPoly:
    """Dense polynomial over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def x() -> "IntPoly":
        return IntPoly((0, 1))

    @staticmethod
    def monomial(c: int, k: int) -> "IntPoly":
        return IntPoly((0,) * k + (c,))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            if other == 0:
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "IntPoly":
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "IntPoly":
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "IntPoly":
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "IntPoly":
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return IntPoly()
        out: list[int] = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = IntPoly((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def evaluate(self, point):
        """Horner evaluation; works for any ring element (ints, IntPoly
        values)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    __call__ = evaluate

    def __repr__(self):
        if not self.coeffs:
            return "IntPoly('0')"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = (" + " if c > 0 else " - ") if parts else ("" if c > 0 else "-")
            body = "" if (abs(c) == 1 and i > 0) else str(abs(c))
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if i == 0 and not body:
                body = "1"
            parts.append(sign + body + term)
        return f"IntPoly('{''.join(parts)}')"


def _as_poly(v) -> IntPoly | None:
    if isinstance(v, IntPoly):
        return v
    if isinstance(v, int):
        return IntPoly((v,))
    return None


def polydivmod(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Long division f = q*g + r with deg r < deg g, over the integers.
    Each leading-coefficient division must be exact (always true for monic
    g); otherwise ValueError is raised.
    """
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, f.degree - g.degree + 1)
    r = f
    glead = g.leading
    while not r.is_zero and r.degree >= g.degree:
        t, rem = divmod(r.leading, glead)
        if rem:
            raise ValueError(f"inexact coefficient division {r.leading} / {glead}")
        shift = r.degree - g.degree
        q[shift] = t
        r = r - IntPoly.monomial(t, shift) * g
    return IntPoly(q), r


def exact_divide(f: IntPoly, g: IntPoly) -> IntPoly:
    """Quotient f / g; raises ValueError naming the remainder when g does not
    divide f exactly."""
    q, r = polydivmod(f, g)
    if not r.is_zero:
        raise ValueError(f"{f!r} is not divisible by {g!r}: remainder {r!r}")
    return q


def remainder_mod(f: IntPoly, g: IntPoly) -> IntPoly:
    """Remainder of f modulo g (g must have an invertible leading
    coefficient, e.g. be monic)."""
    return polydivmod(f, g)[1]


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and circulant symbols
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, computed exactly by dividing x^n - 1
    by the cyclotomic polynomials of the proper divisors of n.  Memoized per
    process."""
    if n < 1:
        raise ValueError(f"cyclotomic index must be positive, got {n}")
    poly = IntPoly((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            poly = exact_divide(poly, cyclotomic(d))
    return poly


def circulant_symbol(n: int, offsets: Iterable[int]) -> IntPoly:
    """The symbol polynomial of Circ(n, S): its values at the n-th roots of
    unity are exactly the circulant's eigenvalues.  The coefficient sequence
    is the adjacency row of vertex 0."""
    spec = CirculantSpec(n, offsets)
    coeffs = [0] * n
    for s in spec.offsets:
        coeffs[s] += 1
        if 2 * s != n:
            coeffs[n - s] += 1
    return IntPoly(coeffs)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


class VanishingReport:
    """Which root-of-unity orders d | n make the circulant symbol vanish.

    Membership is decided exactly: d is included iff the d-th cyclotomic
    polynomial divides the symbol reduced modulo x^n - 1.
    """

    __slots__ = ("n", "divisors_vanishing")

    def __init__(self, n: int, divisors_vanishing: Iterable[int]):
        self.n = n
        self.divisors_vanishing = frozenset(divisors_vanishing)
        if any(n % d for d in self.divisors_vanishing):
            raise ValueError("vanishing orders must divide the circulant order")

    def __eq__(self, other):
        return (isinstance(other, VanishingReport)
                and (self.n, self.divisors_vanishing)
                == (other.n, other.divisors_vanishing))

    def __repr__(self):
        return f"VanishingReport(n={self.n}, divisors_vanishing={sorted(self.divisors_vanishing)})"

    @property
    def nullity(self) -> int:
        """Number of vanishing eigenvalues: each vanishing order d
        contributes phi(d) roots of unity."""
        return sum(_euler_phi(d) for d in self.divisors_vanishing)


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _monic_divides(g: tuple[int, ...], f: list[int]) -> bool:
    """Whether the monic integer polynomial g divides f; both are coefficient
    sequences, lowest degree first.  Consumes f."""
    dg = len(g) - 1
    for top in range(len(f) - 1, dg - 1, -1):
        c = f[top]
        if c:
            shift = top - dg
            for i in range(dg):
                f[shift + i] -= c * g[i]
    return not any(f[:dg])


def vanishing_orders(n: int, offsets: Iterable[int]) -> VanishingReport:
    """Exactly which orders of n-th roots of unity are zeros of the symbol
    polynomial of Circ(n, S).

    For each d | n the symbol is folded modulo x^d - 1, which Phi_d divides,
    so Phi_d divides the symbol exactly when it divides the fold, a
    polynomial of degree below d."""
    symbol = circulant_symbol(n, offsets).coeffs
    vanishing = []
    for d in _divisors(n):
        folded = [0] * d
        for i, c in enumerate(symbol):
            folded[i % d] += c
        if _monic_divides(cyclotomic(d).coeffs, folded):
            vanishing.append(d)
    return VanishingReport(n, vanishing)


def circulant_is_nut_symbolic(n: int, offsets: Iterable[int]) -> bool:
    """Symbolic nut test for Circ(n, S), with no linear algebra.

    The adjacency kernel is one-dimensional with a full vector exactly when
    the only vanishing root order is 2 (the alternating vector): order 1
    cannot vanish because the symbol at 1 equals the degree, and any other
    order d contributes phi(d) >= 2 zero eigenvalues.
    """
    if n % 2:
        return False
    return vanishing_orders(n, offsets).divisors_vanishing == frozenset({2})


def gcd_criterion(n: int, k: int) -> bool:
    """Arithmetic nut criterion for consecutive-offset circulants
    Circ(n, {1..k}): both n and k even, n >= 2k + 2, and
    gcd(n/2, k/2) = gcd(n/2, k + 1) = 1.  Returns False whenever the
    hypotheses fail."""
    if k < 2 or n % 2 or k % 2 or n < 2 * k + 2:
        return False
    return gcd(n // 2, k // 2) == 1 and gcd(n // 2, k + 1) == 1
