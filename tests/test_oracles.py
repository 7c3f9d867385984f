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
from gkval.oracles import ARCH_CASES, DivergentIntegral, OracleError


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


def test_su21_shell_is_bit_identical_to_the_stratum_loop():
    """Integral s takes CPython's integer-power path, the rest the general
    one; both must give the reference sum to the last bit."""
    rationals = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
                 Fraction(2, 3), Fraction(5, 4), Fraction(12, 5)]
    samples = [complex(s) for s in rationals] + [complex(1, 2), complex(0.75, -0.5)]
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 27):
        for depth in (1, 2, 3, 60, 120):
            cfg = OracleConfig(depth=depth, tolerance=1e300)
            for s in samples:
                got = gk_integral_su21_inert(LocalPlace(q), s, cfg)
                assert repr(got) == repr(_stratum_loop(q, s, depth)), (q, depth, s)


def test_su21_matches_symbolic_local_factors():
    eta = HeckeCharacterDescriptor("E_alpha", 2, RationalComplex())
    prod = r_alpha(AffineForm.of(4), 1, SU21, eta)
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


def test_sl2_r_constant_is_one_over_pi():
    _, const = s_independence_check("SL2_R", (1.0,))
    assert const == pytest.approx(1 / math.pi, abs=1e-12)


def test_legendre_identities():
    samples = [0.3 + 0.2 * k for k in range(10)]
    assert legendre_check(samples)
    assert legendre_check([1, 0.5, 1.5])


def test_normalizer_has_poles_signaled():
    from gkval import PoleAtEvaluation

    with pytest.raises(PoleAtEvaluation):
        normalizing_factor_arch("SL2_R", 0)
