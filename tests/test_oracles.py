import math
from fractions import Fraction

import pytest

from gkval import (
    AffineForm,
    HeckeCharacterDescriptor,
    LocalPlace,
    NotConverged,
    OracleConfig,
    RationalComplex,
    SU21,
    arch_gk,
    evaluate_finite,
    gk_integral_sl2,
    gk_integral_sl3,
    gk_integral_su21_inert,
    legendre_check,
    normalizing_factor_arch,
    r_alpha,
    s_independence_check,
    sl2_closed_form,
    sl3_longest_factorization,
    su21_inert_closed_form,
)
from gkval import oracles
from gkval.oracles import ARCH_CASES, DivergentIntegral, OracleError, _su21_height_weights


def test_place_validation():
    with pytest.raises(OracleError):
        LocalPlace(1)


def test_sl2_shell_matches_closed_form():
    for q in (2, 3, 5):
        place = LocalPlace(q)
        for s in (1, 1.5, 2, 3):
            got = gk_integral_sl2(place, s)
            assert abs(got - sl2_closed_form(q, s)) < 1e-10


def test_sl2_shell_extension_field():
    place = LocalPlace(9)
    got = gk_integral_sl2(place, 1)
    assert abs(got - sl2_closed_form(9, 1)) < 1e-12


def test_sl2_specific_values():
    assert gk_integral_sl2(LocalPlace(3), 1) == pytest.approx(4 / 3, abs=1e-12)
    assert gk_integral_sl2(LocalPlace(2), 2) == pytest.approx(7 / 6, abs=1e-12)


def test_sl2_large_s_is_one():
    assert gk_integral_sl2(LocalPlace(3), 50) == pytest.approx(1.0, abs=1e-12)


def test_sl2_divergent_half_plane():
    with pytest.raises(DivergentIntegral):
        gk_integral_sl2(LocalPlace(3), -1)


def test_sl2_shallow_depth_reports_nonconvergence():
    with pytest.raises(NotConverged):
        gk_integral_sl2(LocalPlace(2), 0.05, OracleConfig(depth=3))


def test_sl2_tail_bound_dominates_error():
    # shallow depths, where truncation dominates float rounding
    for q in (2, 3):
        for depth in (8, 12):
            cfg = OracleConfig(depth=depth, tolerance=1.0)
            got = gk_integral_sl2(LocalPlace(q), 1, cfg)
            err = abs(got - sl2_closed_form(q, 1))
            bound = q ** (-depth) / (1 - 1 / q)
            assert err <= bound + 1e-13


def test_su21_inert_matches_closed_form():
    for q in (3, 5):
        place = LocalPlace(q)
        for s in (1, 2):
            got = gk_integral_su21_inert(place, s)
            assert abs(got - su21_inert_closed_form(q, s)) < 1e-9


def test_su21_specific_value():
    got = gk_integral_su21_inert(LocalPlace(3), 1)
    assert got == pytest.approx(28 / 27, abs=1e-10)


def _stratum_loop(q, s, depth):
    """The SU(2,1) shell sum as first written: one max() and one complex
    power per stratum (k, m), summed in (k, m) order."""
    s = complex(s)
    total = complex(0.0)
    for k in range(depth + 1):
        ck = 1.0 if k == 0 else 1.0 - q ** (-2)
        for m in range(depth + 1):
            cm = 1.0 if m == 0 else 1.0 - 1.0 / q
            # volume exponent 2k + m, height exponent max(0, 2m, 4k);
            # combined in one power of q to avoid overflow at depth
            h = max(0, 2 * m, 4 * k)
            total += ck * cm * q ** (2 * k + m - h * (s + 1.0))
    return total


def _exact_stratum_sum(q, s, depth):
    """The same truncated sum in exact arithmetic, for s in (1/2)Z, where
    every exponent is an integer: integer coefficients of powers of q."""
    assert (2 * s).denominator == 1
    two_s1 = int(2 * s) + 2
    coeffs = {}
    for k in range(depth + 1):
        for m in range(depth + 1):
            h = max(0, 2 * m, 4 * k)  # even, so h (s + 1) = (h / 2)(2s + 2)
            e = 2 * k + m - (h // 2) * two_s1 - (2 if k else 0) - (1 if m else 0)
            coeffs[e] = coeffs.get(e, 0) + (q * q - 1 if k else 1) * (q - 1 if m else 1)
    low = min(coeffs)
    return Fraction(sum(c * q ** (e - low) for e, c in coeffs.items()), q ** -low)


def _exact_height_weights(q, depth):
    """w[H] by a plain double loop over every stratum (k, m), exactly."""
    w = [Fraction(0)] * (2 * depth + 1)
    for k in range(depth + 1):
        ck = 1 if k == 0 else 1 - Fraction(1, q * q)
        for m in range(depth + 1):
            cm = 1 if m == 0 else 1 - Fraction(1, q)
            h = max(m, 2 * k)
            w[h] += ck * cm * Fraction(q) ** (2 * k + m - 2 * h)
    return w


def _ulps(x, exact):
    """|x - exact| in units in the last place of exact rounded to float."""
    return abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact)))


SHELL_QS = (2, 3, 4, 5, 7, 8, 9, 11, 16, 27)


def test_su21_shell_is_within_4_ulp_of_the_exact_truncated_sum():
    """At s in {1, 2, 3, 1/2} every power of q is rational, so the
    truncated sum is known exactly."""
    for q in SHELL_QS:
        for depth in (1, 2, 3, 60):
            cfg = OracleConfig(depth=depth, tolerance=1e300)
            for s in (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)):
                got = gk_integral_su21_inert(LocalPlace(q), complex(s), cfg)
                assert got.imag == 0, (q, depth, s)
                assert _ulps(got.real, _exact_stratum_sum(q, s, depth)) <= 4, (q, depth, s)


def test_su21_shell_matches_the_stratum_loop():
    """Non-integral and complex s take the general complex power."""
    rationals = [Fraction(2, 3), Fraction(5, 4), Fraction(12, 5)]
    samples = [complex(s) for s in rationals] + [complex(1, 2), complex(0.75, -0.5)]
    for q in SHELL_QS:
        for depth in (1, 2, 3, 60, 120):
            cfg = OracleConfig(depth=depth, tolerance=1e300)
            for s in samples:
                got = gk_integral_su21_inert(LocalPlace(q), s, cfg)
                want = _stratum_loop(q, s, depth)
                assert abs(got - want) <= 1e-14 * abs(want), (q, depth, s)


def test_su21_height_weights_match_the_exact_double_loop():
    for q in (2, 3, 65521):
        for depth in (1, 2, 3, 7, 60):
            got = _su21_height_weights(q, depth)
            want = _exact_height_weights(q, depth)
            assert len(got) == len(want) == 2 * depth + 1
            for h, (g, x) in enumerate(zip(got, want)):
                assert _ulps(g, x) <= 4, (q, depth, h)


def test_su21_matches_symbolic_local_factors():
    eta = HeckeCharacterDescriptor("E_alpha", 2, RationalComplex())
    prod = r_alpha(AffineForm.of(1), SU21, eta)
    for q in (3, 5):
        for s in (1.0, 2.0):
            symbolic = evaluate_finite(prod, q, s)
            integral = gk_integral_su21_inert(LocalPlace(q), s)
            assert abs(symbolic - integral) < 1e-9


def test_su21_large_s_is_one():
    got = gk_integral_su21_inert(LocalPlace(3), 40)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_sl3_composition_matches_factorization():
    for q in (2, 3):
        for s in (1, 2):
            got = gk_integral_sl3(LocalPlace(q), s)
            want = sl3_longest_factorization(q, s)["value"]
            assert abs(got - want) < 1e-10


def test_sl3_specific_value():
    got = gk_integral_sl3(LocalPlace(2), 2)
    want = (49 / 36) * (31 / 30)
    assert got == pytest.approx(want, abs=1e-10)


def test_arch_gk_unit_values():
    assert arch_gk("SL2_R", 1) == pytest.approx(1.0, abs=1e-12)
    assert arch_gk("ResC/R_SL2", 1) == pytest.approx(1.0, abs=1e-12)
    assert arch_gk("SU21_R", 1) == pytest.approx(1.0, abs=1e-12)


def test_arch_gk_rejects_unknown_case():
    with pytest.raises(OracleError):
        arch_gk("nope", 1)


def test_arch_constancy_all_cases():
    samples = (0.7, 1.0, 1.3, 2.1, 3.0)
    for case in ARCH_CASES:
        ok, const = s_independence_check(case, samples)
        assert ok, case
        assert abs(const) > 0


# L(1+x)/L(x) in closed form, with Gamma_R(x) = pi^(-x/2) Gamma(x/2),
# Gamma_C(x) = 2 (2 pi)^(-x) Gamma(x) and L_R(x, sgn) = Gamma_R(x + 1)
NORMALIZER_CLOSED_FORMS = {
    "SL2_R": lambda s: math.gamma((s + 1) / 2) / (math.sqrt(math.pi) * math.gamma(s / 2)),
    "ResC/R_SL2": lambda s: s / (2 * math.pi),
    "SU21_R": lambda s: (s / (2 * math.pi) * math.gamma(s + 1)
                         / (math.sqrt(math.pi) * math.gamma(s + 0.5))),
}


@pytest.mark.parametrize("case", ARCH_CASES)
def test_normalizing_factor_arch_matches_math_gamma(case):
    """At the samples of verify-arch."""
    for s in (0.7, 1.0, 1.3, 2.1, 3.0):
        value = normalizing_factor_arch(case, s)
        assert type(value) is complex
        assert value == pytest.approx(NORMALIZER_CLOSED_FORMS[case](s), rel=1e-13)


def test_sl2_r_constant_is_one_over_pi():
    _, const = s_independence_check("SL2_R", (1.0,))
    assert const == pytest.approx(1 / math.pi, abs=1e-12)


def test_legendre_identities():
    samples = [0.3 + 0.2 * k for k in range(10)]
    assert legendre_check(samples)
    assert legendre_check([1, 0.5, 1.5])


@pytest.mark.parametrize("bad", [2, 3])
def test_legendre_check_fails_on_a_wrong_gamma(monkeypatch, bad):
    """At s = 1 the identities read Gamma(2) and Gamma(3) against Gamma(1),
    Gamma(3/2) and Gamma(2): a wrong Gamma(2) breaks the first, and a wrong
    Gamma(3) breaks only the second."""
    gamma = oracles.checked_gamma
    monkeypatch.setattr(oracles, "checked_gamma",
                        lambda x: gamma(x) * (1 + 1e-6) if x == bad else gamma(x))
    assert not legendre_check([1])


def test_normalizer_has_poles_signaled():
    from gkval import PoleAtEvaluation

    with pytest.raises(PoleAtEvaluation):
        normalizing_factor_arch("SL2_R", 0)
