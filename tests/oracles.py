"""Independent oracles for expected values.

Everything here avoids the code paths under test: polynomial and complex
arithmetic go through mpmath at 40 significant digits, integrals through
scipy's adaptive quadrature of the defining integrands, and derivatives
through Richardson-extrapolated central differences.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad

mp.mp.dps = 40


def mp_polyval(coeffs, x):
    """Polynomial sum via mpmath, highest precision, lowest cleverness."""
    x = mp.mpf(repr(float(x)))
    total = mp.mpf(0)
    for n, c in enumerate(coeffs):
        total += mp.mpf(repr(float(c))) * x**n
    return float(total)


def mp_polyder(coeffs, x):
    x = mp.mpf(repr(float(x)))
    total = mp.mpf(0)
    for n, c in enumerate(coeffs):
        if n >= 1:
            total += n * mp.mpf(repr(float(c))) * x ** (n - 1)
    return float(total)


def mp_difference_quotient(coeffs, e1, e2):
    """(g(e1) - g(e2))/(e1 - e2) for distinct floats, exact to 40 digits."""
    e1, e2 = mp.mpf(repr(float(e1))), mp.mpf(repr(float(e2)))
    cs = [mp.mpf(repr(float(c))) for c in coeffs]
    g1 = sum(c * e1**n for n, c in enumerate(cs))
    g2 = sum(c * e2**n for n, c in enumerate(cs))
    return float((g1 - g2) / (e1 - e2))


def mp_amplitude(coeffs, k):
    """f = -1/(-g(k^2) + i k) in mpmath complex arithmetic."""
    k = mp.mpf(repr(float(k)))
    g = mp.mpf(0)
    for n, c in enumerate(coeffs):
        g += mp.mpf(repr(float(c))) * (k * k) ** n
    f = -1 / (-g + 1j * k)
    return complex(f)

def mp_arccot(x):
    """arccot on the branch (0, pi)."""
    return float(mp.pi / 2 - mp.atan(mp.mpf(repr(float(x)))))


def richardson_derivative(f, x, h0=1e-2, levels=5):
    """Central differences extrapolated in h^2."""
    table = []
    h = h0
    for _ in range(levels):
        table.append((f(x + h) - f(x - h)) / (2.0 * h))
        h /= 2.0
    vals = list(table)
    for j in range(1, levels):
        factor = 4.0**j
        vals = [
            (factor * vals[i + 1] - vals[i]) / (factor - 1.0)
            for i in range(len(vals) - 1)
        ]
    return vals[0]


def radial_norm_quadrature(q, a2):
    """int |A e^{-qr}/r|^2 d3r by adaptive quadrature."""
    value, _ = quad(
        lambda r: 4.0 * math.pi * r * r * (a2 * math.exp(-2.0 * q * r) / (r * r)),
        0.0,
        np.inf,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return value


def radial_overlap_quadrature(q1, q2, a1, a2):
    """int phi_1 phi_2 d3r for two bound-type wavefunctions, real amplitudes."""
    value, _ = quad(
        lambda r: 4.0 * math.pi * a1 * a2 * math.exp(-(q1 + q2) * r),
        0.0,
        np.inf,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return value


def loop_imag_eta_oracle(eps, energy, mass=1.0):
    """Im I(E>0) as the zero-width limit of a Lorentzian-regularized integral.

    Evaluates the eta-broadened defining integral for a decreasing eta
    sequence and extrapolates in eta^2.
    """
    alpha = 0.5 * eps * eps
    values = []
    etas = [2e-3, 1e-3, 5e-4]
    for eta in etas:
        def integrand(k):
            d = energy - k * k / mass
            return k * k * math.exp(-alpha * k * k) * (-eta) / (d * d + eta * eta)

        v, _ = quad(integrand, 0.0, np.inf, epsabs=1e-15, epsrel=1e-12, limit=800)
        values.append(v / (2.0 * math.pi**2))
    # Lorentzian smearing error is c1 eta + c2 eta^2: one linear stage, one
    # quadratic stage
    v01 = 2.0 * values[1] - values[0]
    v12 = 2.0 * values[2] - values[1]
    return (4.0 * v12 - v01) / 3.0


def mp_norm_integral(eps, energy, mass=1.0):
    """J(E) = int d3k/(2 pi)^3 chi^2/(E - k^2/m)^2 by mpmath quadrature at 40 digits.

    The radial integrand has scales kappa = sqrt(-m E) and 1/eps, so the
    interval is split at both.
    """
    alpha = mp.mpf(repr(float(eps))) ** 2 / 2
    energy = mp.mpf(repr(float(energy)))
    mass = mp.mpf(repr(float(mass)))
    kappa = mp.sqrt(-mass * energy)
    width = 1 / mp.sqrt(alpha)
    points = sorted({mp.mpf(0), kappa, 10 * kappa, width, 10 * width})
    value = mp.quad(
        lambda k: k * k * mp.exp(-alpha * k * k) / (energy - k * k / mass) ** 2,
        points + [mp.inf],
    )
    return value / (2 * mp.pi**2)


def mp_pole_energy(lam, e_mol, eps, guess, mass=1.0):
    """Root of (E - e_mol)/(2 lam^2) - I(E) below threshold at 40 digits.

    Solved in kappa = sqrt(-m E), where the bracket stays real on both sides.
    """
    lam, e_mol, mass = (mp.mpf(repr(float(v))) for v in (lam, e_mol, mass))
    alpha = mp.mpf(repr(float(eps))) ** 2 / 2

    def bracket(kappa):
        loop = (mass / (2 * mp.pi**2)) * (
            -mp.sqrt(mp.pi / alpha) / 2
            + mp.pi * kappa * mp.exp(kappa * kappa * alpha) * mp.erfc(kappa * mp.sqrt(alpha)) / 2
        )
        return (-kappa * kappa / mass - e_mol) / (2 * lam * lam) - loop

    kappa = mp.findroot(bracket, mp.sqrt(-mass * mp.mpf(repr(float(guess)))))
    return float(-kappa * kappa / mass)


def open_overlap_quadrature(lam, eps, e1, beta1, e2, beta2, mass=1.0):
    """2 lam^2 beta_1 beta_2 int d3k/(2 pi)^3 chi^2/((E_1 - e_k)(E_2 - e_k)).

    By adaptive quadrature of the radial integrand.
    """
    alpha = 0.5 * eps * eps

    def integrand(k):
        ek = k * k / mass
        return k * k * math.exp(-alpha * k * k) / ((e1 - ek) * (e2 - ek))

    value, _ = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    return 2.0 * lam * lam * beta1 * beta2 * value / (2.0 * math.pi**2)


def mp_pole_residual(coeffs, q):
    """h(q) = g(-q^2) + q at the float q, evaluated at 40 digits."""
    q = mp.mpf(repr(float(q)))
    return sum(mp.mpf(repr(float(c))) * (-q * q) ** n for n, c in enumerate(coeffs)) + q


def mp_bound_poles(coeffs, q_min, q_max):
    """Real roots of h(q) = g(-q^2) + q in (q_min, q_max], sorted.

    numpy's companion-matrix roots only serve as starting points: every root
    with Im z >= 0 is refined at 40 digits by mpmath's secant iteration on
    the complex plane, and counts as real when the refined imaginary part
    vanishes to 25 digits.
    """
    cs = [mp.mpf(repr(float(c))) for c in coeffs]

    def h(q):
        return sum(c * (-q * q) ** n for n, c in enumerate(cs)) + q

    h_np = np.zeros(max(2, 2 * len(coeffs) - 1))
    for n, c in enumerate(coeffs):
        h_np[2 * n] = c * (-1.0) ** n
    h_np[1] += 1.0
    found = []
    for z in map(complex, np.polynomial.polynomial.polyroots(h_np).tolist()):
        if z.imag < 0.0:
            continue
        start = mp.mpf(z.real) if z.imag == 0.0 else mp.mpc(z.real, z.imag)
        root = mp.findroot(h, start)
        if abs(mp.im(root)) <= mp.mpf("1e-25") * abs(root) and q_min < mp.re(root) <= q_max:
            found.append(float(mp.re(root)))
    return sorted(found)


def mp_loop_integral(eps, energy, mass=1.0):
    """I(E < 0) in closed form with mpmath's erfc at 40 digits."""
    alpha = mp.mpf(repr(float(eps))) ** 2 / 2
    mass = mp.mpf(repr(float(mass)))
    kappa = mp.sqrt(-mass * mp.mpf(repr(float(energy))))
    return (mass / (2 * mp.pi**2)) * (
        -mp.sqrt(mp.pi / alpha) / 2
        + mp.pi * kappa * mp.exp(kappa * kappa * alpha) * mp.erfc(kappa * mp.sqrt(alpha)) / 2
    )
