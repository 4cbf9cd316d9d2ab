"""Cyclic three-component vectors: complex numbers without signs.

A :class:`CyclicTriple` ``t{a,b,c}`` has nonnegative components and the
cyclic product rule (second basis element squared gives the third, and
so on around).  Adding a constant vector ``(k, k, k)`` never changes the
encoded value, so equality ignores it.  Under that quotient the system
is the complex plane: ``(a, b, c)`` stands for ``a + b*w + c*w**2`` with
``w = exp(2*pi*i/3)``.  The arithmetic is the shared cyclic core
(:mod:`signfree._cyclic`) with three parts: Q(sqrt 3)[C3].
"""

from __future__ import annotations

import math

from ._cyclic import CyclicElement, checked_payload
from .scalars import ExactScalar, _float, _normalised, _scaled, _text

__all__ = ["CyclicTriple"]

_COMPONENTS = ("component a", "component b", "component c")  # entry names in errors
_COMPLEX_SCALE = 10**12  # `from_complex` keeps 12 decimal places of each part
# 1, -1, i and -i as a triple's (p, q) ints over 3: (1, 0, 0), (0, 1, 1) as 1 + w + w^2 = 0,
# and sqrt3/3 times (1, 2, 0) and (1, 0, 2), as 1 + 2w = i*sqrt3 and 1 + 2w^2 = -i*sqrt3
_CHARACTER_INTS = {1: (3, 0, 0, 0, 0, 0), -1: (0, 0, 3, 0, 3, 0), 1j: (0, 1, 0, 2, 0, 0), -1j: (0, 1, 0, 0, 0, 2)}


def _round_scaled(v: float) -> int:
    """``round(Fraction(v) * 10**12)`` from v's int ratio: the nearest int,
    ties to even."""
    n, d = v.as_integer_ratio()  # d is a power of 2
    q, r = divmod(n * _COMPLEX_SCALE, d)
    return q + 1 if 2 * r > d or (2 * r == d and q & 1) else q


def _norm_sq_ints(pa: int, qa: int, pb: int, qb: int, pc: int, qc: int, den: int) -> "tuple[int, int, int]":
    """a^2 + b^2 + c^2 - ab - ac - bc of the parts ``(p + q*sqrt3) / den``,
    as ``(p, q, d)`` ints with ``d > 0``, not in lowest terms."""
    # with u = a - b and v = b - c it is u^2 + u*v + v^2
    up, uq, vp, vq = pa - pb, qa - qb, pb - pc, qb - qc
    return (
        up * up + vp * vp + up * vp + 3 * (uq * uq + vq * vq + uq * vq),
        2 * (up * uq + vp * vq) + up * vq + uq * vp,
        den * den,
    )


def _root(p: int, q: int, d: int) -> float:
    """The square root of ``(p + q*sqrt3) / d >= 0`` by `_scaled`, so a root
    in float range is found even where the square is past it."""
    f, e = _scaled(p, q, d)
    return math.ldexp(math.sqrt(math.ldexp(f, e & 1)), e >> 1)


def _complex(pa: int, qa: int, pb: int, qb: int, pc: int, qc: int, den: int) -> complex:
    """a + b*w + c*w^2 of the parts ``(p + q*sqrt3) / den``, as floats."""
    # re = a - (b + c)/2 and im = (b - c)*sqrt3/2, both over 2*den
    return complex(_float(2 * pa - pb - pc, 2 * qa - qb - qc, 2 * den), _float(3 * (qb - qc), pb - pc, 2 * den))


class CyclicTriple(CyclicElement):
    """Nonnegative ``(a, b, c)`` with cyclic multiplication."""

    __slots__ = ()
    _NOUN = "triples"
    _ORDERS = (3,)

    def __init__(self, a: object = 0, b: object = 0, c: object = 0) -> None:
        self._num, self._den = checked_payload((a, b, c), _COMPONENTS)

    @classmethod
    def from_complex(cls, value: complex) -> "CyclicTriple":
        """Reduced representative of a complex number.

        The real and imaginary parts are rationalized to 12 decimal
        places, so the round trip through :meth:`to_complex` is accurate
        to roughly 10**-12.
        """
        z = complex(value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("cannot represent a non-finite complex value")
        x, y = _round_scaled(z.real), _round_scaled(z.imag)
        # ints over 3 * _COMPLEX_SCALE: |x| times the rational ints of 1 or -1, |y| the sqrt3 ints of i or -i
        pa, _, pb, _, pc, _ = _CHARACTER_INTS[1 if x >= 0 else -1]
        _, qa, _, qb, _, qc = _CHARACTER_INTS[1j if y >= 0 else -1j]
        x, y = abs(x), abs(y)
        return cls._make((x * pa, y * qa, x * pb, y * qb, x * pc, y * qc), 3 * _COMPLEX_SCALE).reduce()

    @property
    def a(self) -> ExactScalar:
        return self._part(0)

    @property
    def b(self) -> ExactScalar:
        return self._part(1)

    @property
    def c(self) -> ExactScalar:
        return self._part(2)

    def norm_sq(self) -> ExactScalar:
        """Exact squared length: a^2 + b^2 + c^2 - ab - ac - bc.

        Invariant under adding constant vectors, multiplicative, and zero
        exactly when a = b = c.
        """
        return _normalised(*_norm_sq_ints(*self._num, self._den))

    def norm(self) -> float:
        """The length ``sqrt(norm_sq())`` as a float, read from the norm's ints."""
        return _root(*_norm_sq_ints(*self._num, self._den))

    def conj(self) -> "CyclicTriple":
        """Swap b and c: the complex conjugate under the quotient."""
        pa, qa, pb, qb, pc, qc = self._num
        return self._make((pa, qa, pc, qc, pb, qb), self._den)

    def to_complex(self) -> complex:
        return _complex(*self._num, self._den)

    def __str__(self) -> str:
        pa, qa, pb, qb, pc, qc = self._num
        d = self._den
        return f"t{{{_text(pa, qa, d)},{_text(pb, qb, d)},{_text(pc, qc, d)}}}"

    def __repr__(self) -> str:
        return "CyclicTriple({}, {}, {})".format(*self.components)
