"""Acceptance battery: every check at its stated tolerance, one line each.

Each test runs one named check from :mod:`resokit.verify` (the same code the
``resokit verify`` subcommand executes) and prints its pass/fail line. The
stated runtime envelopes are asserted with generous slack.
"""

import time

from resokit import verify


def _run(check, runtime_budget):
    start = time.perf_counter()
    result = check()
    seconds = time.perf_counter() - start
    print(result.line())
    assert seconds < runtime_budget, f"runtime budget exceeded: {seconds:.2f}s {result.line()}"
    assert result.passed, result.line()
    return result


def test_criterion_01_unitarity_one_channel():
    # 200 random models (degree <= 6), 50-point log grid, residual < 1e-13
    result = _run(verify.check_unitarity_one_channel, runtime_budget=1.0)
    assert result.tolerance == 1e-13


def test_criterion_02_unitarity_two_channel():
    # 50 random parameter sets, k0 in [1e-3, 1/eps], residual < 1e-12
    result = _run(verify.check_unitarity_two_channel, runtime_budget=10.0)
    assert result.tolerance == 1e-12


def test_criterion_03_orthogonality():
    # 100 two-pole models and 50 close pairs, |(1|2)_0| < 1e-12 |<1|2>|
    result = _run(verify.check_orthogonality, runtime_budget=1.0)
    assert result.tolerance == 1e-12


def test_criterion_04_series_quotient():
    # 500 draws including near-degenerate pairs, 1e-12 relative
    result = _run(verify.check_series_quotient, runtime_budget=1.0)
    assert result.tolerance == 1e-12


def test_criterion_05_normalization():
    # reference models plus 50 random ones, modified-norm residual < 1e-10
    result = _run(verify.check_normalization, runtime_budget=5.0)
    assert result.tolerance == 1e-10


def test_criterion_06_loop_integral_oracle():
    # closed form vs quadrature: 1e-10 below threshold, 1e-8 for Re above
    _run(verify.check_loop_oracle, runtime_budget=30.0)


def test_criterion_07_effective_params():
    # closed forms vs low-energy fit over 20 sets at 1e-6; coupling term 1e-12
    _run(verify.check_effective_params, runtime_budget=30.0)


def test_criterion_08_zero_range_limit():
    # energy error halves with eps (ratio 2.0 +- 0.5); R* slope within 5%
    _run(verify.check_zero_range_limit, runtime_budget=120.0)


def test_criterion_09_molecular_identity():
    # exact algebra at machine precision; tail residual monotone, < 2% at
    # eps = 0.025; closed-channel fraction within 2% of the derived limit
    _run(verify.check_molecular_identity, runtime_budget=120.0)


def test_criterion_10_feshbach_layer():
    # background recovery at 1e6 widths, exact zero crossing, width-radius
    # product round trip at 1e-12 on a synthetic 3-species file
    _run(verify.check_feshbach_layer, runtime_budget=1.0)


def test_full_battery_is_green():
    results = verify.run_battery("all")
    for result in results:
        print(result.line())
    assert all(r.passed for r in results)


BATTERY_NAMES = {
    "unitarity": ["unitarity-one-channel", "unitarity-two-channel"],
    "orthogonality": ["orthogonality", "series-quotient"],
    "mapping": ["loop-integral-oracle", "effective-params", "zero-range-limit"],
    "identity": ["normalization", "molecular-identity"],
}
BATTERY_NAMES["all"] = [
    "unitarity-one-channel", "unitarity-two-channel", "orthogonality", "series-quotient",
    "normalization", "loop-integral-oracle", "effective-params", "zero-range-limit",
    "molecular-identity", "feshbach-layer",
]


def test_battery_table():
    # each group runs its checks in a fixed order, every one timed
    for group, names in BATTERY_NAMES.items():
        results = verify.run_battery(group, 7)
        assert [r.name for r in results] == names
        assert all(r.seconds > 0.0 for r in results)
    # the seed reaches the checks
    assert verify.run_battery("orthogonality", 7)[0].worst == verify.check_orthogonality(7).worst
    assert verify.check_orthogonality(7).worst != verify.check_orthogonality(8).worst
