"""Fuzzing the oracle options of ``verify-local``.

``--depth``, ``--tol``, ``--q`` and ``--s-grid`` get valid values mixed
with junk text, huge, negative, NaN and over-cap ones.  Whatever the mix,
the run exits 0 (every check passed), 1 (a check failed or did not
converge) or 2 (bad input, reported in one stderr line), and raises
nothing.  Valid depths stay at 120 or below, so each run is fast.
Hypothesis runs derandomized, so the drawn options are the same on every
run.
"""

import contextlib
import io
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from gkval.cli import EXIT_OK, EXIT_SCHEMA, EXIT_VERIFY, main

JUNK = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
               max_size=8)
HUGE = st.integers(10**6, 10**40).map(str)
NEGATIVE = st.integers(-10**6, 0).map(str)


def valid_or_not(valid, *bad):
    """Half the draws valid, so that a quarter of the runs reach the oracles."""
    return st.one_of(valid, st.one_of(*bad))


DEPTH = valid_or_not(st.integers(1, 120).map(str), st.integers(2001, 10**9).map(str),
                     HUGE, NEGATIVE, st.sampled_from(["nan", "1.5", "1e3"]), JUNK)
TOL = valid_or_not(st.floats(1e-12, 1.0).map(repr), st.floats(allow_nan=True).map(repr),
                   st.sampled_from(["nan", "-nan", "inf", "-0.0", "1e999"]), JUNK)
Q = valid_or_not(st.sampled_from(["2", "3", "4", "5", "7", "8", "9", "11", "4096"]),
                 st.integers(12, 70000).map(str), HUGE, NEGATIVE, JUNK)
S = valid_or_not(st.fractions(Fraction(1, 2), 4, max_denominator=12).map(str),
                 st.fractions(max_denominator=10**6).map(str), st.floats().map(repr),
                 st.sampled_from(["1e-400", "1e400", "1/1000", "1000", "1/1001", "nan",
                                  "1/0"]),
                 JUNK)


@st.composite
def oracle_argv(draw):
    argv = ["verify-local", "--output-format", "json"]
    for option, values in (("--depth", DEPTH), ("--tol", TOL)):
        if draw(st.booleans()):
            argv += [option, draw(values)]
    if draw(st.booleans()):
        argv += ["--q", *draw(st.lists(Q, min_size=1, max_size=2))]
    if draw(st.booleans()):
        argv += ["--s-grid", ",".join(draw(st.lists(S, min_size=1, max_size=3)))]
    return argv


@settings(derandomize=True, max_examples=200, deadline=None)
@given(oracle_argv())
def test_oracle_options_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_VERIFY, EXIT_SCHEMA), (argv, code)
    if code == EXIT_SCHEMA:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
        assert out.getvalue() == ""
