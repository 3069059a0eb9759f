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
    x = mp.mpf(float(x))
    total = mp.mpf(0)
    for n, c in enumerate(coeffs):
        total += mp.mpf(float(c)) * x**n
    return float(total)


def mp_polyder(coeffs, x):
    x = mp.mpf(float(x))
    total = mp.mpf(0)
    for n, c in enumerate(coeffs):
        if n >= 1:
            total += n * mp.mpf(float(c)) * x ** (n - 1)
    return float(total)


def mp_difference_quotient(coeffs, e1, e2):
    """(g(e1) - g(e2))/(e1 - e2) for distinct floats, exact to 40 digits."""
    e1, e2 = mp.mpf(float(e1)), mp.mpf(float(e2))
    cs = [mp.mpf(float(c)) for c in coeffs]
    g1 = sum(c * e1**n for n, c in enumerate(cs))
    g2 = sum(c * e2**n for n, c in enumerate(cs))
    return float((g1 - g2) / (e1 - e2))


def mp_modified_product(coeffs, e1, a1, e2, a2, plain, dps=50):
    """plain - (2 pi hbar^2/mu) conj(A_1) A_2 D at ``dps`` digits, and its scale.

    D = sum_n c_n sum_{p=1..n} e1^(n-p) e2^(p-1) is the finite sum that
    both routes of resokit.product evaluate, the series term by term and the
    quotient by synthetic division (hbar = 1, mu = 1/2). The scale
    |plain| + (2 pi/mu) |A_1 A_2| sum_n |c_n| sum_p |e1|^(n-p) |e2|^(p-1)
    bounds the magnitude of every term either route adds up.
    """
    with mp.workdps(dps):
        e1, e2 = mp.mpf(e1), mp.mpf(e2)
        cs = [mp.mpf(c) for c in coeffs]
        d = mp.mpf(0)
        d_abs = mp.mpf(0)
        for n, c in enumerate(cs):
            for p in range(1, n + 1):
                term = c * e1 ** (n - p) * e2 ** (p - 1)
                d += term
                d_abs += abs(term)
        prefactor = 4 * mp.pi
        a12 = mp.conj(mp.mpc(a1)) * mp.mpc(a2)
        exact = mp.mpc(plain) - prefactor * a12 * d
        scale = abs(mp.mpc(plain)) + prefactor * abs(a12) * d_abs
        return complex(exact), float(scale)


def mp_amplitude(coeffs, k):
    """f = -1/(-g(k^2) + i k) in mpmath complex arithmetic."""
    k = mp.mpf(float(k))
    g = mp.mpf(0)
    for n, c in enumerate(coeffs):
        g += mp.mpf(float(c)) * (k * k) ** n
    f = -1 / (-g + 1j * k)
    return complex(f)

def mp_arccot(x):
    """arccot on the branch (0, pi)."""
    return float(mp.pi / 2 - mp.atan(mp.mpf(float(x))))


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
    alpha = mp.mpf(float(eps)) ** 2 / 2
    energy = mp.mpf(float(energy))
    mass = mp.mpf(float(mass))
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
    lam, e_mol, mass = (mp.mpf(float(v)) for v in (lam, e_mol, mass))
    alpha = mp.mpf(float(eps)) ** 2 / 2

    def bracket(kappa):
        loop = (mass / (2 * mp.pi**2)) * (
            -mp.sqrt(mp.pi / alpha) / 2
            + mp.pi * kappa * mp.exp(kappa * kappa * alpha) * mp.erfc(kappa * mp.sqrt(alpha)) / 2
        )
        return (-kappa * kappa / mass - e_mol) / (2 * lam * lam) - loop

    kappa = mp.findroot(bracket, mp.sqrt(-mass * mp.mpf(float(guess))))
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


def mp_open_overlap(lam, eps, e1, beta1, e2, beta2, mass=1.0, dps=60):
    """2 lam^2 beta_1 beta_2 (I(E_1) - I(E_2))/(E_2 - E_1) at ``dps`` digits.

    I - I(0) = -I(0) r with r of :func:`mp_loop_shapes`, so the difference
    of the loop integrals is I(0) (r_2 - r_1), free of the common I(0).
    """
    with mp.workdps(dps):
        eps, mass = mp.mpf(float(eps)), mp.mpf(float(mass))
        loop_zero = -mass * mp.sqrt(2 * mp.pi) / (4 * mp.pi**2 * eps)
        r1, r2 = (
            mp_loop_shapes(mp.sqrt(-mass * mp.mpf(float(e))) * eps / mp.sqrt(2), dps)[0]
            for e in (e1, e2)
        )
        k = loop_zero * (r2 - r1) / (mp.mpf(float(e2)) - mp.mpf(float(e1)))
        return 2 * mp.mpf(float(lam)) ** 2 * mp.mpf(float(beta1)) * mp.mpf(float(beta2)) * k


def mp_pole_residual(coeffs, q):
    """h(q) = g(-q^2) + q at the float q, evaluated at 40 digits."""
    q = mp.mpf(float(q))
    return sum(mp.mpf(float(c)) * (-q * q) ** n for n, c in enumerate(coeffs)) + q


def mp_bound_poles(coeffs, q_min, q_max):
    """Real roots of h(q) = g(-q^2) + q in (q_min, q_max], sorted.

    numpy's companion-matrix roots only serve as starting points: every root
    with Im z >= 0 is refined at 40 digits by mpmath's secant iteration on
    the complex plane, and counts as real when the refined imaginary part
    vanishes to 25 digits.
    """
    cs = [mp.mpf(float(c)) for c in coeffs]

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


def mp_quadratic_poles(c0, c1, q_min, q_max, real_rel):
    """Bound states of the degree-1 model g = c0 + c1 E at 60 digits.

    h(q) = c0 + q - c1 q^2 has the roots (1 +- sqrt d)/(2 c1), d = 1 + 4 c0 c1;
    the one of smaller modulus is taken from their product -c0/c1, so that
    no magnitude of the coefficients cancels digits. A conjugate pair with
    |Im z| <= ``real_rel`` |z|, or two real roots closer than ``real_rel``
    relative, is one tangent pole at its mean 1/(2 c1). Returns the sorted
    (q, tangent) pairs with q in (q_min, q_max].
    """
    with mp.workdps(60):
        c0, c1 = mp.mpf(float(c0)), mp.mpf(float(c1))
        d = 1 + 4 * c0 * c1
        mean = 1 / (2 * c1)
        if d < 0:
            poles = [(mean, True)] if mp.sqrt(-d) <= real_rel * mp.sqrt(1 - d) else []
        else:
            big = (1 + mp.sqrt(d)) / (2 * c1)
            lo, hi = sorted([big, -c0 / (c1 * big)])
            poles = [(mean, True)] if hi - lo <= real_rel * abs(hi) else [(lo, False), (hi, False)]
        return [(q, tangent) for q, tangent in poles if q_min < q <= q_max]


def mp_loop_integral(eps, energy, mass=1.0):
    """I(E < 0) in closed form with mpmath's erfc at 40 digits."""
    alpha = mp.mpf(float(eps)) ** 2 / 2
    mass = mp.mpf(float(mass))
    kappa = mp.sqrt(-mass * mp.mpf(float(energy)))
    return (mass / (2 * mp.pi**2)) * (
        -mp.sqrt(mp.pi / alpha) / 2
        + mp.pi * kappa * mp.exp(kappa * kappa * alpha) * mp.erfc(kappa * mp.sqrt(alpha)) / 2
    )


def mp_dawson(x, dps=50):
    """Dawson's integral D(x) and D'(x) = 1 - 2x D(x) from mpmath's erfi at ``dps`` digits."""
    with mp.workdps(dps):
        x = mp.mpf(float(x))
        d = mp.sqrt(mp.pi) / 2 * mp.exp(-x * x) * mp.erfi(x)
        return d, 1 - 2 * x * d


def mp_loop_integral_above(eps, energy, mass=1.0):
    """Re I(E > 0) = I(0) (1 - 2x D(x)) at x = k0 eps/sqrt(2), at 50 digits."""
    with mp.workdps(50):
        eps, mass = mp.mpf(float(eps)), mp.mpf(float(mass))
        x = mp.sqrt(mass * mp.mpf(float(energy))) * eps / mp.sqrt(2)
        loop_zero = -mass * mp.sqrt(2 * mp.pi) / (4 * mp.pi**2 * eps)
        return loop_zero * mp_dawson(x, dps=50)[1]


def mp_loop_shapes(x, dps=40):
    """r = sqrt(pi) x erfcx(x) and 1 - r at ``dps`` digits relative, x >= 0.

    I(E < 0) = I(0) (1 - r) at x = kappa eps/sqrt(2). Below x = 1e3 both
    are taken at 20 extra digits, more than the log10(2x^2) that 1 - r
    loses to cancellation; from there on 1 - r is the asymptotic series
    -sum_{n>=1} (-1)^n (2n-1)!!/(2x^2)^n up to its smallest term, since
    exp(x^2) erfc(x) at fixed precision loses log10(x^2) digits.
    """
    with mp.workdps(dps):
        x = mp.mpf(x)
        if x < 1000:
            with mp.workdps(dps + 20):
                r = mp.sqrt(mp.pi) * x * mp.exp(x * x) * mp.erfc(x)
                return +r, +(1 - r)
        total, term, n = mp.mpf(0), mp.mpf(1), 0
        while abs(term) > mp.eps:
            n += 1
            term *= -(2 * n - 1) / (2 * x * x)
            total -= term
        return 1 - total, total


def mp_pole_bracket(lam, e_mol, eps, mass, energy, dps=800):
    """B(E) = (E - e_mol)/(2 lam^2) - I(E) below threshold at ``dps`` digits.

    I(E) = I(0) (1 - r) with I(0) = -m sqrt(2 pi)/(4 pi^2 eps) and r of
    :func:`mp_loop_shapes`. Where r < 1/2, B is summed as
    (E - e_mol)/(2 lam^2) - I(0) + I(0) r, whose first terms can cancel by
    hundreds of digits and are exact at ``dps`` digits; otherwise as
    (E - e_mol)/(2 lam^2) - I(0) (1 - r), whose terms cancel by no more
    than the energy offset of a sign test. Either way r or 1 - r is needed
    only to 40 digits.
    """
    with mp.workdps(dps):
        lam, e_mol, eps, mass, energy = (mp.mpf(v) for v in (lam, e_mol, eps, mass, energy))
        x = mp.sqrt(-mass * energy) * eps / mp.sqrt(2)
        loop_zero = -mass * mp.sqrt(2 * mp.pi) / (4 * mp.pi**2 * eps)
        r, shape = mp_loop_shapes(x)
        detuning = (energy - e_mol) / (2 * lam * lam)
        if r < 0.5:
            return detuning - loop_zero + loop_zero * r
        return detuning - loop_zero * shape
