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
import re
from dataclasses import dataclass

from .errors import InvalidInput


@dataclass(frozen=True)
class PhaseShiftModel:
    """Polynomial model g(E) = c_0 + c_1 E + ... + c_N E^N.

    c_n carries units of 1/(length * energy^n). Trailing zero coefficients
    are stripped on construction so the degree is canonical.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if not cs:
            raise InvalidInput("model needs at least one coefficient")
        if any(not math.isfinite(c) for c in cs):
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

    @property
    def scattering_length(self) -> float:
        """a = -1/c_0 from g(0) = -1/a."""
        if self.coeffs[0] == 0.0:
            raise InvalidInput("c_0 = 0: scattering length is not defined")
        return -1.0 / self.coeffs[0]

    @property
    def width_radius(self) -> float:
        """R* = -c_1; zero for a constant model."""
        if self.degree < 1:
            return 0.0
        return -self.coeffs[1]

    @property
    def effective_range(self) -> float:
        """r_e = -2 R*, exact for the two-term model."""
        return -2.0 * self.width_radius

    def validity_scale(self) -> float:
        """Energy scale 1/(mu r_e^2), mu = 1/2, bounding the model's low-energy window.

        Informational only; evaluation is not restricted to it.
        """
        r_e = self.effective_range
        if r_e == 0.0:
            return math.inf
        return 1.0 / (0.5 * r_e**2)

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


_LITERAL_EFF_RANGE = re.compile(
    r"^\s*a\s*=\s*(?P<a>[^\s,]+)\s*(?:[,\s]\s*rstar\s*=\s*(?P<rstar>[^\s,]+)\s*)?$"
)
_LITERAL_COEFFS = re.compile(r"^\s*(?:g\s*=\s*)?\[(?P<body>[^\]]*)\]\s*$")


def parse_model_literal(text: str) -> PhaseShiftModel:
    """Parse ``g = [c0, c1, ...]`` or ``a=<val> rstar=<val>`` into a model."""
    m = _LITERAL_COEFFS.match(text)
    if m:
        body = m.group("body").strip()
        if not body:
            raise InvalidInput(f"empty coefficient list in {text!r}")
        try:
            coeffs = tuple(float(part) for part in body.split(","))
        except ValueError as exc:
            raise InvalidInput(f"bad coefficient in {text!r}: {exc}") from None
        return PhaseShiftModel(coeffs)
    m = _LITERAL_EFF_RANGE.match(text)
    if m:
        try:
            a = float(m.group("a"))
            rstar = float(m.group("rstar")) if m.group("rstar") else 0.0
        except ValueError as exc:
            raise InvalidInput(f"bad value in {text!r}: {exc}") from None
        return PhaseShiftModel.from_effective_range(a, rstar)
    raise InvalidInput(f"cannot parse model literal {text!r}")
