"""Scattering observables of a one-channel contact model.

The amplitude is parameterized as f(k) = -1/(-g(E) + i k) with E = k^2 in
the working units, which satisfies the optical theorem Im(1/f) = -k
identically for any real polynomial g.

Every observable takes a wavenumber or an array of them and returns a
Python scalar or an array of the same shape. An ``int`` or ``float`` (and
so ``np.float64``) takes the scalar expressions that define the values,
f = -1/complex(-g, k), atan2(k, g) and abs(f), without importing numpy;
anything else is an array. Arrays are validated once, and the first
offending entry decides the error, as if the points were evaluated in
order. Their arithmetic reproduces the scalar expressions bit for bit:
complex division follows CPython's algorithm, squares are products, and
moduli and atan2 go through the C library (``np.hypot`` and
``math.atan2``), because numpy's complex ``abs`` and ``arctan2`` round
differently in the last bit.
"""

from __future__ import annotations

import math

from .contact import PhaseShiftModel
from .errors import DivergentAmplitude, InvalidInput


def energy(k):
    """Relative energy E = k^2 of a wavenumber or an array of them."""
    if isinstance(k, (int, float)):
        return float(k) * float(k)
    import numpy as np
    k = np.asarray(k, dtype=float)
    with np.errstate(over="ignore"):  # E = inf past the float range, as for a float
        return k * k


def _evaluate_point(model: PhaseShiftModel, k, positive: bool):
    """k as a float with g(E(k)). k must be finite and nonnegative (positive
    if ``positive``) with a finite energy, else :class:`InvalidInput`; k = 0
    with g(0) = 0 raises :class:`DivergentAmplitude`.
    """
    k = float(k)
    e = k * k
    g = model.g(e)
    if not ((k > 0.0 if positive else k >= 0.0) and math.isfinite(e)):
        kind = "positive" if positive else "nonnegative"
        raise InvalidInput(f"wavenumber must be finite and {kind} with a finite energy")
    if k == 0.0 and g == 0.0:
        raise DivergentAmplitude("zero-energy resonance: g(0) = 0")
    return k, g


def _evaluate(model: PhaseShiftModel, k, positive: bool):
    """k as a float array with E(k) and g(E), validated point by point.

    The first offending point decides: it raises the error of
    :func:`_evaluate_point`, whose arithmetic is the same.
    """
    import numpy as np
    k = np.asarray(k, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        e = energy(k)
        g = model.g(e)
    bad = ~(((k > 0.0) if positive else (k >= 0.0)) & np.isfinite(e))
    failed = bad | ((k == 0.0) & (g == 0.0))
    if failed.any():
        _evaluate_point(model, k.flat[np.flatnonzero(failed)[0]], positive)
    return k, e, g


def _result(values):
    """A Python scalar for 0-d results, the array otherwise."""
    return values.item() if values.ndim == 0 else values


def _complex_quotient(ar, ai, br, bi):
    """(ar + i ai)/(br + i bi) by CPython's ``_Py_c_quot``, elementwise.

    Smith's scaling by the larger of |br| and |bi|; numpy's own complex
    division rounds differently.
    """
    import numpy as np
    with np.errstate(all="ignore"):
        real_big = np.abs(br) >= np.abs(bi)
        ratio = np.where(real_big, bi / br, br / bi)
        denom = np.where(real_big, br + bi * ratio, br * ratio + bi)
        real = np.where(real_big, ar + ai * ratio, ar * ratio + ai) / denom
        imag = np.where(real_big, ai - ar * ratio, ai * ratio - ar) / denom
    return real, imag


def _amplitude(k, g):
    """Real and imaginary parts of f for validated k and g(E)."""
    import numpy as np
    real, imag = _complex_quotient(-1.0, 0.0, -g, k)
    threshold = k == 0.0
    if threshold.any():
        with np.errstate(divide="ignore", over="ignore"):
            real = np.where(threshold, 1.0 / g, real)
        imag = np.where(threshold, 0.0, imag)
    return real, imag


def _amplitude_point(k: float, g: float) -> complex:
    """f for a validated k and g(E): the real threshold value 1/g at k = 0."""
    return complex(1.0 / g, 0.0) if k == 0.0 else -1.0 / complex(-g, k)


def amplitude(model: PhaseShiftModel, k):
    """f(k) = -1/(-g(E) + ik); at k = 0 the real threshold value -a."""
    if isinstance(k, (int, float)):
        return _amplitude_point(*_evaluate_point(model, k, positive=False))
    import numpy as np
    k, _, g = _evaluate(model, k, positive=False)
    real, imag = _amplitude(k, g)
    f = np.empty(k.shape, dtype=complex)
    f.real = real
    f.imag = imag
    return _result(f)


def phase_shift(model: PhaseShiftModel, k):
    """delta_s(k) = arccot(g(E)/k) on the branch (0, pi].

    Evaluated as atan2(k, g), which keeps the branch open at 0 for any
    finite g; the limits g/k -> +inf and -inf map to 0+ and pi.
    """
    if isinstance(k, (int, float)):
        return math.atan2(*_evaluate_point(model, k, positive=True))
    import numpy as np
    k, _, g = _evaluate(model, k, positive=True)
    delta = np.fromiter(map(math.atan2, k.ravel().tolist(), g.ravel().tolist()), float, k.size)
    return _result(delta.reshape(k.shape))


def cross_section(model: PhaseShiftModel, k, identical: bool = False):
    """4 pi |f|^2, or 8 pi |f|^2 for identical bosons."""
    factor = 8.0 * math.pi if identical else 4.0 * math.pi
    if isinstance(k, (int, float)):
        f = _amplitude_point(*_evaluate_point(model, k, positive=True))
        try:
            modulus = abs(f)  # the C library's hypot, as np.hypot
        except OverflowError:  # finite parts, a modulus past the float range
            modulus = math.inf
        return factor * (modulus * modulus)
    import numpy as np
    k, _, g = _evaluate(model, k, positive=True)
    real, imag = _amplitude(k, g)
    with np.errstate(over="ignore"):
        modulus = np.hypot(real, imag)
        return _result(factor * (modulus * modulus))


def unitarity_kernel(k, g):
    """|Im(1/f) + k| / k from float arrays k > 0 and g(E(k)) that broadcast.

    Zero up to rounding for real-coefficient models. The wavenumbers are not
    validated, so g of many models on one wavenumber grid, stacked into a
    2-d array, is one call. Every operation is elementwise, so each entry
    carries the same bits as a one-model call on the same point.
    """
    import numpy as np
    _, inv_imag = _complex_quotient(1.0, 0.0, *_amplitude(k, g))
    return np.abs(inv_imag + k) / k
