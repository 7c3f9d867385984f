"""Property-based invariants of folding, Weyl words and coroot pairings.

The systems are the table families of ``verify-all`` and split A-G up to
rank 6, each at res_degree 1, 2 and 3.  Hypothesis runs derandomized, so
the drawn words are the same on every run.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from gkval import family_datum, restrict_roots, split_datum


def positive_count(family, n):
    """|Phi+| of the absolute root system of type family_n."""
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(n), "F": 24, "G": 6}[family]


def _cases():
    """(datum, absolute family, absolute rank) for every system under test."""
    split = [("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)]
    split += [("C", r) for r in range(2, 7)] + [("D", r) for r in range(3, 7)]
    split += [("E", 6), ("F", 4), ("G", 2)]
    out = []
    for d in (1, 2, 3):
        out += [(split_datum(f, r, d), f, r) for f, r in split]
        out += [(family_datum("SU(n,n+1)", n, d), "A", 2 * n) for n in range(2, 7)]
        out += [(family_datum("SU(n,n)", n, d), "A", 2 * n - 1) for n in range(2, 7)]
        out += [(family_datum("Spin2n-", n, d), "D", n) for n in range(4, 7)]
        out += [(family_datum("3D4", 4, d), "D", 4), (family_datum("2E6", 6, d), "E", 6)]
    return out


CASES = _cases()


@functools.cache
def fold(datum):
    return restrict_roots(datum)


@st.composite
def systems_and_words(draw):
    system = fold(draw(st.sampled_from(CASES))[0])
    word = draw(st.lists(st.integers(0, system.rank - 1), max_size=14))
    return system, word


PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@PROPERTY
@given(systems_and_words())
def test_normal_form_length_is_inversion_count(case):
    system, word = case
    w = system.normalize(word)
    assert len(w.word) == len(system.inversion_set(w))


@PROPERTY
@given(systems_and_words())
def test_normalize_is_idempotent(case):
    system, word = case
    w = system.normalize(word)
    assert system.normalize(w.word) == w


def test_longest_element_inverts_every_positive_root():
    for datum, _, _ in CASES:
        system = fold(datum)
        w0 = system.longest_element()
        assert system.inversion_set(w0) == system.positive_roots, datum.label


def test_coroot_pairings_are_integers_matching_cartan():
    for datum, _, _ in CASES:
        system = fold(datum)
        dp = datum.res_degree
        for r in system.positive_roots:
            vec = system.coroot_pairing_vector(r)
            assert all(type(c) is int for c in vec), (datum.label, r.coords)
        for j, b in enumerate(system.simple_roots):
            vec = system.coroot_pairing_vector(b)
            assert vec == tuple(dp * system.cartan[i][j] for i in range(system.rank))


def test_orbit_sizes_sum_to_absolute_positive_count():
    for datum, family, rank in CASES:
        system = fold(datum)
        total = sum(len(r.orbit) for r in system.positive_roots)
        assert total == positive_count(family, rank), datum.label
