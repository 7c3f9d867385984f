"""The suites of the ``verify-*`` commands.

Each suite returns a list of check records, dicts with a ``name``, the
``inputs`` and ``pass``.  The CLI imports this module, and with it the
numeric oracles, only when it runs one of those commands.
"""

from __future__ import annotations

import itertools
import random

from .characters import UnramifiedCharacter
from .constant_term import (
    ConstantTermError,
    component_pole_ratio,
    corollary_ratio_table,
    multiplicativity_check,
    sl3_longest_factorization,
)
from .oracles import (
    ARCH_CASES,
    NotConverged,
    OracleConfig,
    gk_integral_sl2,
    gk_integral_sl3,
    gk_integral_su21_inert,
    legendre_check,
    s_independence_check,
    sl2_closed_form,
    su21_inert_closed_form,
)
from .roots import (
    WeylElement,
    derived_table,
    family_datum,
    proposition_table,
    restrict_roots,
    split_datum,
)


def _check(name: str, inputs: dict, observed: complex, expected: complex,
           tol: float) -> dict:
    err = abs(observed - expected)
    return {
        "name": name,
        "inputs": inputs,
        "observed": [observed.real, observed.imag],
        "expected": [expected.real, expected.imag],
        "abs_err": err,
        "pass": bool(err < tol),
    }


def local_checks(places, s_grid, cfg: OracleConfig) -> list[dict]:
    checks = []
    for place in places:
        q = place.residue_q
        for s in s_grid:
            sc = complex(s)
            # name, oracle, closed form, tolerance
            cases = (
                ("sl2_shell", gk_integral_sl2, sl2_closed_form(q, sc), 1e-10),
                ("su21_inert_shell", gk_integral_su21_inert,
                 su21_inert_closed_form(q, sc), 1e-9),
                ("sl3_factorization", gk_integral_sl3,
                 sl3_longest_factorization(q, sc)["value"], 1e-10),
            )
            for name, oracle, expected, tol in cases:
                inputs = {"q": q, "s": str(s)}
                try:
                    checks.append(_check(name, inputs, oracle(place, sc, cfg),
                                         expected, tol))
                except NotConverged as exc:
                    checks.append({"name": name, "inputs": inputs,
                                   "pass": False, "error": str(exc)})
    return checks


def arch_checks() -> list[dict]:
    checks = []
    samples = (0.7, 1.0, 1.3, 2.1, 3.0)
    for case in ARCH_CASES:
        ok, const = s_independence_check(case, samples)
        checks.append(
            {
                "name": "arch_constancy",
                "inputs": {"case": case},
                "observed_constant": [const.real, const.imag],
                "pass": bool(ok),
            }
        )
    leg_samples = [0.3 + 0.2 * k for k in range(10)]
    checks.append(
        {
            "name": "legendre_duplication",
            "inputs": {"samples": len(leg_samples)},
            "pass": bool(legendre_check(leg_samples)),
        }
    )
    return checks


def table_checks() -> list[dict]:
    checks = []
    cases = []
    for dprime in (1, 2, 3):
        for n in range(2, 7):
            cases.append(("SU(n,n+1)", n, dprime))
            cases.append(("SU(n,n)", n, dprime))
        for n in range(4, 7):
            cases.append(("Spin2n-", n, dprime))
        cases.append(("3D4", 4, dprime))
        cases.append(("2E6", 6, dprime))
    for family, n, dprime in cases:
        system = restrict_roots(family_datum(family, n, dprime))
        derived = derived_table(system)
        stated = proposition_table(family, n, dprime)
        checks.append(
            {
                "name": "degree_table",
                "inputs": {"family": family, "n": n, "d_prime": dprime},
                "observed": derived,
                "expected": stated,
                "pass": derived == stated,
            }
        )
    return checks


def ratio_checks() -> list[dict]:
    cases = [(family, family_datum(family, n, 1)) for family, n in (
        ("SU(n,n+1)", 3), ("SU(n,n)", 3), ("Spin2n-", 5), ("3D4", 4), ("2E6", 6))]
    cases += [(f"split-{family}{rank}", split_datum(family, rank))
              for family, rank in (("A", 3), ("D", 4), ("E", 6))]
    checks = []
    for family, datum in cases:
        system = restrict_roots(datum)
        ctype = system.components[0][0]
        rule = corollary_ratio_table(ctype)
        poles = component_pole_ratio(system, 0)["poles"]
        if rule["kind"] == "equal":
            ok = len(set(poles.values())) == 1
        else:
            ok = poles[rule["numerator"]] / poles[rule["denominator"]] == rule["ratio"]
        inputs = {"family": family}
        if datum.automorphism_order > 1:  # the split rows name no relative type
            inputs["relative_type"] = ctype
        checks.append(
            {
                "name": "pole_ratio",
                "inputs": inputs,
                "rule": {k: str(v) for k, v in rule.items()},
                "observed": {k: str(v) for k, v in poles.items()},
                "pass": bool(ok),
            }
        )
    return checks


def _weyl_check(name: str, inputs: dict, system, words, pairs) -> dict:
    """Inversion counts equal word lengths, and the cocycle holds on every
    length-additive pair (``multiplicativity_check`` raises on the others).
    The cocycle check decides the inversion-set identity on root indices, so
    it builds no rank-one factor and no atom product."""
    chi = UnramifiedCharacter.trivial(system.rank)
    ray = system.principal_ray()
    ok = all(len(system.inversion_set(w)) == len(w.word) for w in words)
    for w1, w2 in pairs:
        try:
            ok &= multiplicativity_check(system, chi, ray, w1, w2)
        except ConstantTermError:
            pass  # lengths do not add
    return {"name": name, "inputs": inputs, "pass": bool(ok)}


def weyl_checks(seed: int) -> list[dict]:
    """Every pair of elements on rank two; random splits of random reduced
    words on rank four."""
    rng = random.Random(seed)
    checks = []
    for family, rank in (("A", 2), ("B", 2), ("G", 2)):
        system = restrict_roots(split_datum(family, rank))
        elements = system.weyl_enumerate()
        checks.append(_weyl_check("weyl_exhaustive", {"system": f"{family}{rank}"},
                                  system, elements, itertools.product(elements, repeat=2)))
    for family, rank in (("B", 4), ("D", 4), ("F", 4)):
        system = restrict_roots(split_datum(family, rank))
        words, splits = [], []
        for _ in range(100):
            w = system.normalize([rng.randrange(rank) for _ in range(rng.randrange(1, 12))])
            cut = rng.randrange(len(w.word) + 1)
            words.append(w)
            splits.append((WeylElement(w.word[:cut]), WeylElement(w.word[cut:])))
        checks.append(_weyl_check("weyl_random", {"system": f"{family}{rank}", "seed": seed},
                                  system, words, splits))
    return checks
