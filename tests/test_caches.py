"""The fold cache of ``restrict_roots`` and the per-system factor table of
``constant_term``: results equal those on a freshly folded system, returned
systems share nothing mutable, and ``verify-all`` does a fixed amount of
work (one fold per diagram, one factor per distinct (system, chi, lambda,
root)).
"""

import contextlib
import importlib
import io
from fractions import Fraction

from gkval import (
    FUNCTION_MODE,
    RationalComplex,
    UnramifiedCharacter,
    WeylElement,
    multiplicativity_check,
    pole_profile,
    restrict_roots,
    split_datum,
    su_datum,
)
from gkval.cli import main

roots = importlib.import_module("gkval.roots")
ct = importlib.import_module("gkval.constant_term")


def _keys(system):
    """(chi, direction, base) keys; neighbours differ in exactly one of base,
    the character's mode, its q and the direction."""
    n = system.rank
    exps = tuple(RationalComplex(Fraction(i + 1, 3), Fraction(i, 2)) for i in range(n))
    ray, base = system.principal_ray(), tuple(Fraction(j, 3) for j in range(n))
    other = tuple(Fraction(j + 1, 2) for j in range(n))
    chi = UnramifiedCharacter(exps)
    ff4, ff8 = (UnramifiedCharacter(exps, FUNCTION_MODE, q) for q in (4, 8))
    return [(chi, ray, None), (chi, ray, base), (ff4, ray, base), (ff8, ray, base),
            (ff8, other, base)]


def _results(system, chi, direction, base):
    """Every reader of the factor table under one key, then a pole profile in
    the pairing variable, which builds its factors outside the table."""
    w = system.longest_element()
    cut = len(w.word) // 2
    w1, w2 = WeylElement(w.word[:cut]), WeylElement(w.word[cut:])
    return [
        ct.constant_term(system, chi, direction, w, base).to_json(),
        ct.constant_term(system, chi, direction, w1, base).to_json(),
        [e.to_json() for e in pole_profile(system, chi, direction, base, w=w,
                                           variable="ray", include_conditional=True)],
        multiplicativity_check(system, chi, direction, w1, w2, base),
        [e.to_json() for e in pole_profile(system, chi, w=w2, include_conditional=True)],
    ]


def test_factor_table_matches_fresh_systems():
    for datum in (su_datum(2, 3, 2), split_datum("B", 3), split_datum("G", 2, 3)):
        shared = restrict_roots(datum)
        keys = _keys(shared)
        for key in keys + keys[::-1]:
            fresh = _results(restrict_roots(datum), *key)
            assert _results(shared, *key) == fresh, (datum.label, key)


def test_returned_systems_share_nothing_mutable():
    datum = su_datum(3, 3)
    first = restrict_roots(datum)
    expected = [list(o) for o in first.simple_orbits]
    first.simple_orbits[0].append(99)
    first.simple_orbits.append([42])
    ct.constant_term(first, *_keys(first)[1][:2], first.longest_element())
    second = restrict_roots(datum)
    assert second.simple_orbits == expected
    assert second.factor_cache is None


def test_verify_all_work_counts(monkeypatch):
    """verify-all at GK_SEED=0 folds each of its 23 distinct (Cartan,
    automorphism) pairs once, in 60 restrict_roots calls (71 before the
    worked SL(3) example was built once per process), builds 62 rank-one
    factors (2,334 without the factor table, 95 before the SL(3) example
    was built once) and makes 1,986 normalize calls (2,802 when
    multiplicativity_check re-normalized its products)."""
    builds, normalized = [], []
    r_alpha = ct.r_alpha
    normalize = roots.RelativeRootSystem.normalize

    def counted(*args):
        builds.append(args)
        return r_alpha(*args)

    def counted_normalize(self, word):
        normalized.append(word)
        return normalize(self, word)

    monkeypatch.setattr(ct, "r_alpha", counted)
    monkeypatch.setattr(roots.RelativeRootSystem, "normalize", counted_normalize)
    monkeypatch.setenv("GK_SEED", "0")
    roots._fold.cache_clear()
    ct._sl3_longest_report.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify-all", "--output-format", "json"]) == 0
    info = roots._fold.cache_info()
    assert (info.misses, info.misses + info.hits) == (23, 60)
    assert len(builds) == 62
    assert len(normalized) == 1986
