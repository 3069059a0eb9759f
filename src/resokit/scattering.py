"""Scattering observables of a one-channel contact model.

The amplitude is parameterized as f(k) = -1/(-g(E) + i k) with E = k^2 in
the working units, which satisfies the optical theorem Im(1/f) = -k
identically for any real polynomial g.

Each observable takes one wavenumber and returns a Python scalar from the
expressions that define it, f = -1/complex(-g, k), atan2(k, g) and abs(f),
without importing numpy. :func:`table` evaluates many wavenumbers at once:
each point is validated once and evaluates g once. A list takes the scalar
expressions; an array takes array arithmetic that reproduces them bit for
bit, and is validated once, the first offending entry deciding the error
as if the points were evaluated in order. Complex division follows
CPython's algorithm, squares are products, and moduli and atan2 go through
the C library (``np.hypot`` and ``math.atan2``), because numpy's complex
``abs`` and ``arctan2`` round differently in the last bit.
"""

from __future__ import annotations

import math

from .contact import PhaseShiftModel
from .errors import DivergentAmplitude, InvalidInput


def _evaluate_point(model: PhaseShiftModel, k, positive: bool):
    """k as a float with g(E(k)). k must be finite and nonnegative (positive
    if ``positive``) with a finite energy, else :class:`InvalidInput`; k = 0
    with g(0) = 0 raises :class:`DivergentAmplitude`.
    """
    try:
        k = float(k)
    except OverflowError:  # an int past the float range
        k = math.inf
    e = k * k
    g = model.g(e)
    if not ((k > 0.0 if positive else k >= 0.0) and math.isfinite(e)):
        kind = "positive" if positive else "nonnegative"
        raise InvalidInput(f"wavenumber must be finite and {kind} with a finite energy")
    if k == 0.0 and g == 0.0:
        raise DivergentAmplitude("zero-energy resonance: g(0) = 0")
    return k, g


def _evaluate(model: PhaseShiftModel, k):
    """k as a float array with E = k^2 and g(E), validated point by point.

    The first offending point decides: it raises the error of
    :func:`_evaluate_point` with ``positive=False``, whose arithmetic is the
    same.
    """
    import numpy as np
    k = np.asarray(k, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        e = k * k  # E = inf past the float range, as for a float
        g = model.g(e)
    failed = ~((k >= 0.0) & np.isfinite(e)) | ((k == 0.0) & (g == 0.0))
    if failed.any():
        _evaluate_point(model, k.flat[np.flatnonzero(failed)[0]], positive=False)
    return k, e, g


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


def _sigma_point(f: complex, factor: float) -> float:
    """factor |f|^2, |f| by the C library's hypot (as ``np.hypot``)."""
    try:
        modulus = abs(f)
    except OverflowError:  # finite parts, a modulus past the float range
        modulus = math.inf
    return factor * (modulus * modulus)


def _sigma_factor(identical: bool) -> float:
    return 8.0 * math.pi if identical else 4.0 * math.pi


def amplitude(model: PhaseShiftModel, k) -> complex:
    """f(k) = -1/(-g(E) + ik); at k = 0 the real threshold value -a."""
    return _amplitude_point(*_evaluate_point(model, k, positive=False))


def phase_shift(model: PhaseShiftModel, k) -> float:
    """delta_s(k) = arccot(g(E)/k) on the branch (0, pi].

    Evaluated as atan2(k, g), which keeps the branch open at 0 for any
    finite g; the limits g/k -> +inf and -inf map to 0+ and pi.
    """
    return math.atan2(*_evaluate_point(model, k, positive=True))


def cross_section(model: PhaseShiftModel, k, identical: bool = False) -> float:
    """4 pi |f|^2, or 8 pi |f|^2 for identical bosons."""
    f = _amplitude_point(*_evaluate_point(model, k, positive=True))
    return _sigma_point(f, _sigma_factor(identical))


def table(model: PhaseShiftModel, ks, identical: bool = False) -> tuple:
    """The columns k, E, Re f, Im f, delta and sigma at wavenumbers ``ks``.

    A list gives six lists of Python floats, anything else six float arrays
    of its shape. delta and sigma (with the factor of
    :func:`cross_section`) are defined for k > 0 only and read nan at k = 0.
    """
    factor = _sigma_factor(identical)
    if isinstance(ks, list):
        rows = []
        for k in ks:
            k, g = _evaluate_point(model, k, positive=False)
            f = _amplitude_point(k, g)
            rest = (math.atan2(k, g), _sigma_point(f, factor)) if k > 0.0 else (math.nan, math.nan)
            rows.append((k, k * k, f.real, f.imag, *rest))
        return tuple(map(list, zip(*rows))) or tuple([] for _ in range(6))
    import numpy as np
    k, e, g = _evaluate(model, ks)
    real, imag = _amplitude(k, g)
    above = k > 0.0
    delta = np.fromiter(map(math.atan2, k.ravel().tolist(), g.ravel().tolist()), float, k.size)
    with np.errstate(over="ignore"):
        modulus = np.hypot(real, imag)
        sigma = factor * (modulus * modulus)
    return (k, e, real, imag, np.where(above, delta.reshape(k.shape), math.nan),
            np.where(above, sigma, math.nan))


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
