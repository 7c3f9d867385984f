"""Fuzzing the CLI's two inputs: the oracle options and the spec file.

``verify-local``'s ``--depth``, ``--tol``, ``--q`` and ``--s-grid`` get
valid values mixed with junk text, huge, negative, NaN and over-cap ones.
Whatever the mix, the run exits 0 (every check passed), 1 (a check failed
or did not converge) or 2 (bad input, reported in one stderr line), and
raises nothing.  Valid depths stay at 120 or below, so each run is fast.

The README's group spec gets up to three of its values, or entries of
its lists, replaced by wrong types, huge and negative integers, Unicode
digits, exponent-form rationals and nested junk.  ``classify``,
``constant-term`` and ``poles`` then exit 0 or 2, with one stderr line
on 2, and always 2 when the label is no longer a string.

Hypothesis runs derandomized, so the drawn inputs are the same on every
run.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from gkval.cli import EXIT_OK, EXIT_SCHEMA, EXIT_VERIFY, main
from test_golden import COMMANDS, README_SPEC

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


def run(argv) -> int:
    """The exit code; on exit 2, stdout must be empty and stderr one line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    event(f"exit {code}")
    if code == EXIT_SCHEMA:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
        assert out.getvalue() == ""
    return code


@settings(derandomize=True, max_examples=200, deadline=None)
@given(oracle_argv())
def test_oracle_options_exit_cleanly(argv):
    assert run(argv) in (EXIT_OK, EXIT_VERIFY, EXIT_SCHEMA), argv


INTS = st.one_of(st.integers(-10**3, 10**3), st.integers(-10**120, 10**120))
RATIONAL_TEXT = st.one_of(
    st.fractions(max_denominator=10**6).map(str),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-10**9, 10**9)),
    st.sampled_from(["1e5000", "1e-99999999", "15e-1", "1e99", "1e100", "1/0", "nan",
                     "inf", "1_000", " 3/2 ", "٣/٤"]),
)
DIGITS = st.text(alphabet="0123456789²٣١", min_size=1, max_size=6)
NESTED = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), INTS, st.text(max_size=8), DIGITS),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
ENTRY = st.one_of(RATIONAL_TEXT, INTS, NESTED)
# per key, a value of the right shape with hostile parts; any key may also get
# nested junk
SHAPED = {
    "diagram": st.one_of(
        st.builds(str.__add__, st.sampled_from("ABCDEFGaQé"), DIGITS),
        st.integers(1, 5000).map(lambda n: "A" + "9" * n),
        st.fixed_dictionaries({"cartan": st.lists(st.lists(INTS, max_size=3), max_size=3)}),
    ),
    "chi_exponent": st.lists(st.one_of(ENTRY, st.lists(ENTRY, min_size=2, max_size=2)),
                             min_size=2, max_size=2),
    "lambda_direction": st.lists(ENTRY, min_size=2, max_size=2),
    "mode": st.fixed_dictionaries(
        {"function": st.one_of(INTS, st.integers(2**16 - 8, 2**16 + 8))}),
}


@st.composite
def mutated_specs(draw):
    spec = copy.deepcopy(README_SPEC)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(spec)))
        value = spec[key]
        if isinstance(value, list) and value and draw(st.booleans()):
            at = draw(st.integers(0, len(value) - 1))
            entry = value[at]
            if isinstance(entry, list) and entry and draw(st.booleans()):
                entry[draw(st.integers(0, len(entry) - 1))] = draw(ENTRY)
            else:
                value[at] = draw(ENTRY)
        else:
            spec[key] = draw(st.one_of(SHAPED.get(key, INTS), NESTED))
    return spec


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutated_specs(), st.sampled_from(sorted(COMMANDS)))
def test_spec_file_exits_cleanly(tmp_path_factory, spec, command):
    path = tmp_path_factory.getbasetemp() / "fuzz-spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code = run(COMMANDS[command] + ["--input", str(path)])
    assert code in (EXIT_OK, EXIT_SCHEMA), (spec, command)
    if not isinstance(spec["label"], str):
        assert code == EXIT_SCHEMA, (spec, command)
