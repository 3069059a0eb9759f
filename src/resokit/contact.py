"""One-channel contact model described by a polynomial phase function.

The model stores the coefficients of g(E) = sum_n c_n E^n, where
g = k cot(delta_s) and E is the relative energy. In the working units
(hbar = 1, atom mass = 1) the dispersion is E = k^2, a bound state of decay
constant q has E = -q^2, and the two-term case g = -1/a - R* k^2 is the
effective-range description of a narrow resonance. The formulas here and
in the modules built on them carry no hbar or mass constants; the reduced
mass 1/2 enters as a literal factor.
"""

from __future__ import annotations

import math

from .errors import InvalidInput


def _quotient(num: int, den: int) -> float:
    """num/den correctly rounded; +-inf beyond the float range, and inf for den = 0."""
    try:
        return num / den if den else math.inf
    except OverflowError:
        return math.inf if (num < 0) == (den < 0) else -math.inf


def _float(value) -> float:
    """float(value) of a real number; inf for an int past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


class _ReadOnly:
    """Attributes named in ``__slots__``, set in that order by ``__init__``, then read-only.

    A copy or an unpickled object is built by the constructor from the
    attributes in slot order, which is the order of its parameters. There
    is no value equality: objects compare by identity. This stands in for a
    frozen dataclass where importing dataclasses (with inspect) would cost a
    CLI command more than its compute. ``bound.BoundState`` and
    ``twochannel.TwoChannelBoundState`` stay dataclasses: the benchmark's
    smoke test copies them with ``dataclasses.replace``.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))


# Not a dataclass, so that the one-channel and Feshbach commands import none.
class PhaseShiftModel(_ReadOnly):
    """Polynomial model g(E) = c_0 + c_1 E + ... + c_N E^N.

    c_n carries units of 1/(length * energy^n). Trailing zero coefficients
    are stripped on construction so the degree is canonical.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[float, ...]):
        cs = tuple(map(float, coeffs))
        if not cs:
            raise InvalidInput("model needs at least one coefficient")
        if not all(map(math.isfinite, cs)):
            raise InvalidInput("coefficients must be finite")
        n = len(cs)
        while n > 1 and cs[n - 1] == 0.0:
            n -= 1
        object.__setattr__(self, "coeffs", cs[:n])

    @classmethod
    def from_effective_range(cls, a: float, rstar: float = 0.0) -> "PhaseShiftModel":
        """Two-term model with c_0 = -1/a and c_1 = -R*."""
        if a == 0.0:
            raise InvalidInput("scattering length must be nonzero")
        return cls((-1.0 / a, -rstar))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def g(self, energy):
        """Evaluate g(E) by Horner's rule; accepts scalars or arrays."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * energy + c
        return acc

    def difference_quotient(self, e1: float, e2: float) -> float:
        """(g(e1) - g(e2))/(e1 - e2), and g'(e1) at e1 = e2, by synthetic division.

        The Horner partial sums b of g at e1 are the coefficients of
        q(x) = (g(x) - g(e1))/(x - e1), so the quotient is q(e2) in one
        Horner pass, free of cancellation at e1 ~ e2.
        """
        b = total = 0.0
        for c in reversed(self.coeffs[1:]):
            b = b * e1 + c
            total = total * e2 + b
        return total

    def g_prime(self, energy: float) -> float:
        """Exact derivative dg/dE, the diagonal of :meth:`difference_quotient`."""
        return self.difference_quotient(energy, energy)

