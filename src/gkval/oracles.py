"""Independent numerical checks of the symbolic factors.

Everything here is computed by a route that does not pass through the
symbolic algebra: truncated valuation-shell sums for the rank-one p-adic
integrals, direct Gamma-function evaluation for the archimedean ratios,
and the duplication identity.  The test suite compares these against the
symbolic pipeline.

Measures are self-dual with unramified additive character, so the
integer ring of every unramified local field has volume 1 and all local
lambda-constants are 1: ``verify-local`` checks this as shell sum equal to
closed form at every finite place it is given.
"""

from __future__ import annotations

import functools
import math

from .characters import MAX_FIELD_SIZE, is_field_size
from .lfactors import PoleAtEvaluation
from .records import Record


class OracleError(ValueError):
    pass


class DivergentIntegral(OracleError):
    """Re(s) <= 0: the shell series does not converge."""


class NotConverged(ArithmeticError):
    """The truncation depth does not meet the requested tolerance."""


SL2_R = "SL2_R"
RES_CR = "ResC/R_SL2"
SU21_R = "SU21_R"
ARCH_CASES = (SL2_R, RES_CR, SU21_R)


# At this depth the SU(2,1) height weights, (depth + 1)^2 strata summed once
# per field size, take 0.1-0.2 s on a 2-core machine.
MAX_DEPTH = 2000


class LocalPlace(Record):
    """Finite place with residue size residue_q, at most MAX_FIELD_SIZE."""

    __slots__ = ("residue_q",)

    def __init__(self, residue_q: int) -> None:
        if not is_field_size(residue_q):
            raise OracleError(
                f"residue cardinality must be a prime power at most {MAX_FIELD_SIZE}")
        self.residue_q = residue_q


class OracleConfig(Record):
    __slots__ = ("depth", "tolerance")

    def __init__(self, depth: int = 60, tolerance: float = 1e-10) -> None:
        if not 1 <= depth <= MAX_DEPTH:
            raise OracleError(f"depth must be between 1 and {MAX_DEPTH}")
        if not tolerance > 0:  # also rejects nan
            raise OracleError("tolerance must be positive")
        self.depth, self.tolerance = depth, tolerance


DEFAULT_CONFIG = OracleConfig()


def _check_convergence(q: int, re_s: float, cfg: OracleConfig) -> None:
    """Raise unless the shell series in q^(-re_s) converges (re_s > 0) and its
    tail past cfg.depth, q^(-depth re_s) / (1 - q^(-re_s)), meets cfg.tolerance."""
    if re_s <= 0:
        raise DivergentIntegral("shell series needs Re(s) > 0")
    if q ** (-cfg.depth * re_s) / (1.0 - q ** (-re_s)) > cfg.tolerance:
        raise NotConverged("increase depth or tolerance")


# ---------------------------------------------------------------------------
# p-adic shell integrals


def gk_integral_sl2(
    place: LocalPlace, s: complex, cfg: OracleConfig = DEFAULT_CONFIG
) -> complex:
    """Rank-one intertwining integral on the spherical vector, over the
    field with residue size place.residue_q, by valuation shells:

        1 + (1 - 1/q_K) * sum_{k>=1} q_K^{-k s}.

    Converges to (1 - q_K^(-(1+s))) / (1 - q_K^(-s)) for Re(s) > 0.
    """
    s = complex(s)
    q_k = place.residue_q
    _check_convergence(q_k, s.real, cfg)
    total = complex(1.0)
    unit_shell = 1.0 - 1.0 / q_k
    for k in range(1, cfg.depth + 1):
        # shell of valuation -k: volume q_K^k (1 - 1/q_K), height q_K^k
        total += unit_shell * q_k ** (-k * s)
    return total


def sl2_closed_form(q_k: int, s: complex) -> complex:
    return (1.0 - q_k ** (-(1.0 + s))) / (1.0 - q_k ** (-s))


def gk_integral_su21_inert(
    place: LocalPlace, s: complex, cfg: OracleConfig = DEFAULT_CONFIG
) -> complex:
    """Rank-one integral for the quasi-split unitary group in three
    variables at an inert place, by brute-force strata.

    The unipotent radical is {(b, c) in E^2 : c + conj(c) = -b*conj(b)};
    strata are indexed by the depth k of b in the half-integral filtration
    and the depth m of the free antihermitian part of c, with volumes
    q^{2k}(1 - q^{-2}) resp. q^m(1 - q^{-1}); the Iwasawa height of a
    stratum is max(1, q^{2m}, q^{4k}) and the spherical section
    contributes height^{-(s+1)}.  Strata of one height share one power.

    Converges to
        [(1 - q^(-2(1+s))) / (1 - q^(-2s))] * [(1 + q^(-(1+2s))) / (1 + q^(-2s))].
    """
    s = complex(s)
    q = place.residue_q
    _check_convergence(q, 2.0 * s.real, cfg)

    qc = complex(q)
    terms = [w * qc ** (-2 * h * s) for h, w in enumerate(_su21_height_weights(q, cfg.depth))]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


@functools.lru_cache(maxsize=16)
def _su21_height_weights(q: int, depth: int) -> tuple[float, ...]:
    """Stratum (k, m), 0 <= k, m <= depth, adds ck * cm * q^(2k + m - 2H)
    * q^(-2H s) at half-height H = max(m, 2k); w[H] sums the s-free factor.

    With inv[j] = q^-j: strata with m <= 2k sit at H = 2k and add
    ck * cm * inv[2k - m]; strata with m > 2k sit at H = m and add
    ck * cm * inv[m - 2k], where m - 2k >= 1 has the parity of m.
    """
    inv = [q ** -j for j in range(2 * depth + 1)]
    b_shell, c_shell = 1.0 - q ** (-2), 1.0 - 1.0 / q
    w = [0.0] * (2 * depth + 1)
    for k in range(depth + 1):
        ck = 1.0 if k == 0 else b_shell
        w[2 * k] = ck * (inv[2 * k] + c_shell * math.fsum(inv[max(0, 2 * k - depth):2 * k]))
    for m in range(1, depth + 1):
        w[m] += c_shell * (inv[m] + b_shell * math.fsum(inv[2 - m % 2:m - 1:2]))
    return tuple(w)


def su21_inert_closed_form(q: int, s: complex) -> complex:
    a = (1.0 - q ** (-2.0 * (1.0 + s))) / (1.0 - q ** (-2.0 * s))
    b = (1.0 + q ** (-(1.0 + 2.0 * s))) / (1.0 + q ** (-2.0 * s))
    return a * b


def gk_integral_sl3(
    place: LocalPlace, s: complex, cfg: OracleConfig = DEFAULT_CONFIG
) -> complex:
    """Longest-element integral for the split rank-two special linear
    group: composition of rank-one integrals at arguments s, s and 2s."""
    at_s = gk_integral_sl2(place, s, cfg)
    return at_s * at_s * gk_integral_sl2(place, 2 * s, cfg)


# ---------------------------------------------------------------------------
# archimedean ratios


_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def checked_gamma(x: complex) -> complex:
    """Gamma(x) by the Lanczos approximation (g = 7, n = 9, Godfrey's
    coefficients, as in Numerical Recipes 6.1), with the reflection formula
    for Re x < 1/2; PoleAtEvaluation at a non-positive integer.  It agrees
    with math.gamma to 2e-14 relative on 0 < x <= 40, and with a 30-digit
    reference to 2e-13 on Re x in [-10, 40], |Im x| <= 20.  Past x = 171.62,
    where |Gamma| exceeds the largest float, the value is infinite."""
    x = complex(x)
    if abs(x.imag) < 1e-12 and round(x.real) <= 0 and abs(x.real - round(x.real)) < 1e-12:
        raise PoleAtEvaluation(f"Gamma pole at {x}")
    import cmath  # loaded on first use: only the archimedean checks need it

    if x.real < 0.5:
        return math.pi / cmath.sin(math.pi * x) / checked_gamma(1 - x)
    series = _LANCZOS[0] + sum(c / (x + k) for k, c in enumerate(_LANCZOS[1:]))
    t = x + 6.5
    try:  # half powers, as t^(x - 1/2) overflows past x = 142
        h = t ** ((x - 0.5) / 2)
    except OverflowError:  # past x = 255, far beyond the last finite Gamma
        return complex(math.inf)
    return math.sqrt(2 * math.pi) * series * (h * cmath.exp(-t)) * h


def arch_gk(case: str, s: complex) -> complex:
    """Real-place rank-one integral values, as explicit Gamma ratios:

    * SL2 over R:            (Gamma(1)/Gamma(1/2)) Gamma(s/2) / Gamma((s+1)/2)
    * SL2 over C, seen over R: (Gamma(2)/Gamma(1)) Gamma(s) / Gamma(s+1)
    * SU(2,1) over R:        (Gamma(3)/Gamma(3/2))
                               * Gamma(2s) Gamma(s+1/2) / (Gamma(2s+1) Gamma(s+1))
    """
    g = checked_gamma
    if case == SL2_R:
        return g(1) / g(0.5) * g(s / 2) / g((s + 1) / 2)
    if case == RES_CR:
        return g(2) / g(1) * g(s) / g(s + 1)
    if case == SU21_R:
        return g(3) / g(1.5) * g(2 * s) * g(s + 0.5) / (g(2 * s + 1) * g(s + 1))
    raise OracleError(f"unknown archimedean case {case!r}")


def _gamma_r(x: complex, sign: bool = False) -> complex:
    """Completed factor of R at x: pi^(-y) Gamma(y) with y = x/2 for the
    trivial character and y = (x+1)/2 for the sign character."""
    y = (x + 1) / 2 if sign else x / 2
    return math.pi ** -y * checked_gamma(y)


def _gamma_c(x: complex) -> complex:
    """Completed factor of C at x: 2 (2 pi)^(-x) Gamma(x)."""
    return 2.0 * (2 * math.pi) ** -x * checked_gamma(x)


def normalizing_factor_arch(case: str, s: complex) -> complex:
    """The local normalizer L(1+x)/L(x) assembled from completed
    archimedean factors (epsilon factors are 1 here):

    * SL2 over R:    L_R(1+s) / L_R(s)
    * SL2 over C:    L_C(1+s) / L_C(s)
    * SU(2,1) over R: [L_C(1+s)/L_C(s)] * [L_R(1+2s, sgn)/L_R(2s, sgn)]
    """
    s = complex(s)
    if case == SL2_R:
        return _gamma_r(s + 1) / _gamma_r(s)
    if case == RES_CR:
        return _gamma_c(s + 1) / _gamma_c(s)
    if case == SU21_R:
        return (_gamma_c(s + 1) / _gamma_c(s)
                * _gamma_r(2 * s + 1, sign=True) / _gamma_r(2 * s, sign=True))
    raise OracleError(f"unknown archimedean case {case!r}")


def legendre_check(samples) -> bool:
    """Duplication identities for Gamma(2s) and Gamma(2s+1), to 1e-10 relative."""
    g = checked_gamma
    rt_pi = math.sqrt(math.pi)
    for s in samples:
        s = complex(s)
        lhs1 = g(2 * s)
        rhs1 = 2 ** (2 * s - 1) / rt_pi * g(s) * g(s + 0.5)
        lhs2 = g(2 * s + 1)
        rhs2 = 2 ** (2 * s) / rt_pi * g(s + 0.5) * g(s + 1)
        if abs(lhs1 - rhs1) > 1e-10 * max(1.0, abs(lhs1)):
            return False
        if abs(lhs2 - rhs2) > 1e-10 * max(1.0, abs(lhs2)):
            return False
    return True


# ---------------------------------------------------------------------------
# s-independence of the normalized operator


def s_independence_check(case: str, samples) -> tuple[bool, complex]:
    """The normalized archimedean spherical value arch_gk *
    normalizing_factor_arch is s-constant to 1e-9 relative, for a case of
    ARCH_CASES (any other raises OracleError); the constant is whatever the
    measure normalization makes it.

    Returns (passed, observed constant at the first sample).  At a finite
    place the constant is 1, and ``verify-local`` checks that directly by
    comparing each shell sum with its closed form.
    """
    values = [arch_gk(case, s) * normalizing_factor_arch(case, s) for s in samples]
    ref = values[0]
    scale = max(1e-30, abs(ref))
    passed = all(abs(v - ref) <= 1e-9 * scale for v in values)
    return passed, ref
