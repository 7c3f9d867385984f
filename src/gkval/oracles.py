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

from .characters import (
    AffineForm,
    HeckeCharacterDescriptor,
    MAX_FIELD_SIZE,
    RationalComplex,
    is_field_size,
)
from .lfactors import (
    KIND_L,
    LFactorAtom,
    PLACE_COMPLEX,
    PLACE_REAL,
    arch_value,
    checked_gamma,
)
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


_TRIVIAL_R = HeckeCharacterDescriptor("R", 1, RationalComplex())
_SIGN_R = HeckeCharacterDescriptor("R", 1, RationalComplex(), quad_twist=True)
_TRIVIAL_C = HeckeCharacterDescriptor("C", 2, RationalComplex())


def normalizing_factor_arch(case: str, s: complex) -> complex:
    """The local normalizer L(1+x)/L(x) assembled from completed
    archimedean factors (epsilon factors are 1 here):

    * SL2 over R:    L_R(1+s) / L_R(s)
    * SL2 over C:    L_C(1+s) / L_C(s)
    * SU(2,1) over R: [L_C(1+s)/L_C(s)] * [L_R(1+2s, sgn)/L_R(2s, sgn)]
    """

    def lval(place_kind: str, eta, form: AffineForm) -> complex:
        return arch_value(LFactorAtom(KIND_L, place_kind, form, eta), s)

    one_s = AffineForm.of(1, 1)
    just_s = AffineForm.of(1, 0)
    if case == SL2_R:
        return (lval(PLACE_REAL, _TRIVIAL_R, one_s)
                / lval(PLACE_REAL, _TRIVIAL_R, just_s))
    if case == RES_CR:
        return (lval(PLACE_COMPLEX, _TRIVIAL_C, one_s)
                / lval(PLACE_COMPLEX, _TRIVIAL_C, just_s))
    if case == SU21_R:
        return (
            lval(PLACE_COMPLEX, _TRIVIAL_C, one_s)
            / lval(PLACE_COMPLEX, _TRIVIAL_C, just_s)
            * lval(PLACE_REAL, _SIGN_R, AffineForm.of(2, 1))
            / lval(PLACE_REAL, _SIGN_R, AffineForm.of(2, 0))
        )
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
