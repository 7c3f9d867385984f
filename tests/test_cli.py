import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkval import (
    MeromorphicProduct,
    NotConverged,
    RelativeRootSystem,
    UnramifiedCharacter,
    WeylElement,
)
from gkval import checks as suites
from gkval.cli import EXIT_INTERNAL, EXIT_OK, EXIT_SCHEMA, EXIT_VERIFY, load_spec, main
from test_golden import README_FUNCTION_SPEC, README_SPEC

cli = importlib.import_module("gkval.cli")
ct = importlib.import_module("gkval.constant_term")
roots = importlib.import_module("gkval.roots")


def write_spec(tmp_path, payload, name="group.json"):
    """``payload`` is written as JSON, or as is when it is a string."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_triality(tmp_path, capsys):
    path = write_spec(
        tmp_path,
        {
            "diagram": "D4",
            "automorphism": [2, 1, 3, 0],
            "automorphism_order": 3,
            "res_degree": 1,
            "label": "triality",
        },
    )
    code, out = run(capsys, "classify", "--input", path, "--output-format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["components"][0]["type"] == "G2"
    assert payload["degree_table"] == {"long": 3, "short": 1}


@pytest.mark.parametrize(
    "spec, classes",
    [
        # nodes 2 and 3 are the triality fold of the D4, which the tables
        # record as long (orbit of three) and short
        ({"diagram": {"cartan": [[2, -1, 0, 0, 0, 0], [-3, 2, 0, 0, 0, 0],
                                 [0, 0, 2, -1, 0, 0], [0, 0, -1, 2, -1, -1],
                                 [0, 0, 0, -1, 2, 0], [0, 0, 0, -1, 0, 2]]},
          "automorphism": [0, 1, 4, 3, 5, 2], "automorphism_order": 3},
         ["short", "long", "long", "short"]),
        # three cycled copies of split G2, the restriction of scalars of G2
        # from a cubic extension
        ({"diagram": {"cartan": [[2, -1, 0, 0, 0, 0], [-3, 2, 0, 0, 0, 0],
                                 [0, 0, 2, -1, 0, 0], [0, 0, -3, 2, 0, 0],
                                 [0, 0, 0, 0, 2, -1], [0, 0, 0, 0, -3, 2]]},
          "automorphism": [2, 3, 4, 5, 0, 1], "automorphism_order": 3},
         ["short", "long"]),
    ],
    ids=["split-G2-beside-triality", "three-cycled-G2"],
)
def test_triality_flip_only_on_a_triality_component(tmp_path, capsys, spec, classes):
    """Split G2 calls node 0 short, whatever else has an orbit of three."""
    code, out = run(capsys, "classify", "--input", write_spec(tmp_path, spec),
                    "--output-format", "json")
    assert code == EXIT_OK
    assert [r["length_class"] for r in json.loads(out)["simple_roots"]] == classes


def test_classify_scales_with_res_degree(tmp_path, capsys):
    path = write_spec(
        tmp_path,
        {
            "diagram": "D4",
            "automorphism": [2, 1, 3, 0],
            "automorphism_order": 3,
            "res_degree": 2,
        },
    )
    code, out = run(capsys, "classify", "--input", path, "--output-format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["degree_table"] == {"long": 6, "short": 2}


def test_constant_term_split_a1(tmp_path, capsys):
    path = write_spec(tmp_path, {"diagram": "A1"})
    code, out = run(
        capsys, "constant-term", "--input", path, "--output-format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["length"] == 1
    atoms = payload["product"]
    kinds = sorted((a["kind"], a["exponent"]) for a in atoms)
    assert kinds == [("L", -1), ("L", 1), ("eps", -1)]


def test_constant_term_of_the_identity(tmp_path, capsys):
    """The identity inverts no root: no factor, an empty product and an
    empty word, each written as json.dumps writes an empty list."""
    path = write_spec(tmp_path, {"diagram": "A2", "weyl_word": []})
    code, out = run(capsys, "constant-term", "--input", path, "--output-format", "json")
    assert code == EXIT_OK
    payload = {"factors": [], "length": 0, "product": [], "variable_convention": "global",
               "weyl_word": []}
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_constant_term_json_round_trip(tmp_path, capsys):
    path = write_spec(
        tmp_path,
        {
            "diagram": "A4",
            "automorphism": [3, 2, 1, 0],
            "automorphism_order": 2,
        },
    )
    code, out = run(
        capsys, "constant-term", "--input", path, "--output-format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    product = MeromorphicProduct.from_json(payload["product"])
    assert product.to_json() == payload["product"]


def test_byte_stable_output(tmp_path, capsys):
    path = write_spec(tmp_path, {"diagram": "B2"})
    _, out1 = run(capsys, "constant-term", "--input", path,
                  "--output-format", "json")
    _, out2 = run(capsys, "constant-term", "--input", path,
                  "--output-format", "json")
    assert out1 == out2


# sha256 of the text output, which prints each atom's argument, field degree,
# character exponent, twist and, in function-field mode, q
@pytest.mark.parametrize("spec, variable, digest", [
    (README_SPEC, "global", "9010c662d2f8582c4659e33d783bbbe1719a44f66bc320fe642011c629c828e3"),
    (README_SPEC, "local", "15a740023e8f1d967ca8f03e9745e28f74a7546288e1974c3549a9993ec680a8"),
    (README_FUNCTION_SPEC, "global",
     "1d57372ed6652f3814b90081c9779b2842f00cd6586fddd2084d8be397afda0f"),
    (README_FUNCTION_SPEC, "local",
     "0b53941b3fd3dd3a358f1bbe1acdb0202abb9ce6c3434ccc5aa081aa44ccee71"),
], ids=["readme-global", "readme-local", "readme-function-global",
        "readme-function-local"])
def test_constant_term_text_output(tmp_path, capsys, spec, variable, digest):
    """The golden corpus pins JSON only; this pins --output-format text."""
    path = write_spec(tmp_path, spec)
    code, out = run(capsys, "constant-term", "--input", path, "--variable", variable)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# SU(2,2) over a degree-2 field: its F_alpha atoms of degrees 2 and 4 agree in
# every other printed field
_SU22_D2_SPEC = {"diagram": "A3", "automorphism": [2, 1, 0], "automorphism_order": 2,
                 "res_degree": 2}


def test_constant_term_text_tells_atoms_apart(tmp_path, capsys):
    """Text prints one distinct line per atom of the product, and a spec that
    differs from another only in its character prints another text."""
    texts = []
    for spec in (README_SPEC, README_FUNCTION_SPEC, _SU22_D2_SPEC):
        path = write_spec(tmp_path, spec)
        _, out = run(capsys, "constant-term", "--input", path)
        _, blob = run(capsys, "constant-term", "--input", path, "--output-format", "json")
        atom_lines = [line for line in out.splitlines()[1:] if not line.startswith("  root ")]
        assert len(set(atom_lines)) == len(atom_lines) == len(json.loads(blob)["product"])
        texts.append(out)
    assert texts[0] != texts[1]


def _emitted(payload) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit(payload, "json")
    return out.getvalue()


_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u4e2d\U0001f389",
                                      "\u2028", "a\"b\\c\nd\te"])
_JSON_LEAVES = (
    _TEXT | st.booleans() | st.none() | st.integers()
    | st.sampled_from([2**64, -2**64 - 1, -10**40])
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_output_is_json_dumps_with_indent(value):
    """The CLI's emitter writes exactly json.dumps(value, sort_keys=True,
    indent=2) and a newline."""
    assert _emitted(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("payload", [
    Fraction(1, 2), {"a": [1, {"b": Fraction(1, 2)}]}, [{}, [], Fraction(1, 2)],
], ids=["top", "nested", "after-empties"])
def test_json_output_refuses_what_json_refuses(payload):
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        _emitted(payload)


def test_unserializable_payload_prints_nothing(tmp_path, capsys, monkeypatch):
    """A value json cannot serialize, at the end of the sorted output, exits
    3 with one stderr line and nothing on stdout: the text is built whole
    before it is printed.  The Weyl word is written last, after every factor
    and the product."""
    build = cli.constant_term

    def with_fraction(*args):
        report = build(*args)
        word = WeylElement(report.weyl.word + (Fraction(1, 2),))
        return ct.ConstantTermReport(word, report.factors, report.product)

    monkeypatch.setattr(cli, "constant_term", with_fraction)
    path = write_spec(tmp_path, {"diagram": "A2"})
    assert main(["constant-term", "--input", path, "--output-format", "json"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: TypeError: Object of type Fraction "
                            "is not JSON serializable\n")


def test_json_output_builds_no_pure_python_encoder(tmp_path, monkeypatch):
    """constant-term JSON output never builds json's pure-Python encoder,
    which json.dumps builds once per call whenever indent is set."""
    built = []
    make = json.encoder._make_iterencode

    def counted(*args, **kwargs):
        built.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    path = write_spec(tmp_path, {"diagram": "B2", "chi_exponent": ["1/3", ["1/2", "1/5"]]})
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["constant-term", "--input", path, "--output-format", "json"]) == EXIT_OK
    assert json.loads(out.getvalue())["product"]
    assert built == []
    json.dumps([], indent=2)  # the counter sees the indented encoder
    assert len(built) == 1


def test_constant_term_json_builds_no_atom_dicts(tmp_path, monkeypatch):
    """constant-term JSON is written from the report's records: it never
    calls MeromorphicProduct.to_json, which builds one dict per atom."""
    called = []
    to_json = MeromorphicProduct.to_json

    def counted(self):
        called.append(self)
        return to_json(self)

    monkeypatch.setattr(MeromorphicProduct, "to_json", counted)
    path = write_spec(tmp_path, {**README_FUNCTION_SPEC, "weyl_word": None})
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["constant-term", "--input", path, "--output-format", "json"]) == EXIT_OK
    assert json.loads(out.getvalue())["product"]
    assert called == []
    MeromorphicProduct().to_json()  # the counter sees a call
    assert len(called) == 1


_SRC = Path(cli.__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["verify-all"],
    ["constant-term", "--input", "{spec}", "--output-format", "json"],
], ids=["verify-all", "constant-term-E8"])
def test_a_closed_stdout_cuts_the_output_short(tmp_path, argv):
    """A reader that closes early, as `| head` does, ends the output with no
    stderr line, and the exit code stays the command's own.  The read end is
    closed before the child starts, so every write meets a closed pipe."""
    spec = write_spec(tmp_path, {"diagram": "E8"})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "gkval.cli", *(a.format(spec=spec) for a in argv)],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")


def test_poles_local_variable(tmp_path, capsys):
    path = write_spec(
        tmp_path,
        {
            "diagram": "D4",
            "automorphism": [2, 1, 3, 0],
            "automorphism_order": 3,
        },
    )
    code, out = run(capsys, "poles", "--input", path, "--output-format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    locs = {e["length_class"]: e["location"] for e in payload["poles"]}
    assert locs == {"long": "3", "short": "1"}
    assert payload["ratios"][0]["long_over_short"] == "3"


def test_tables_command(capsys):
    code, out = run(capsys, "tables", "--output-format", "json",
                    "--res-degree", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["tables"]["3D4"] == {"long": 6, "short": 2}
    assert payload["tables"]["split"] == {"all": 2}


def test_tables_text_output(capsys):
    """--output-format text prints a d_prime line, then one row per family."""
    code, out = run(capsys, "tables", "--res-degree", "2")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "d_prime: 2"
    assert "3D4: {'long': 6, 'short': 2}" in lines
    assert len(lines) == 1 + len(roots.FAMILIES)


def test_tables_has_no_rank_option():
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--rank", "4"])
    assert exc.value.code == EXIT_SCHEMA


def test_weyl_exhaustive_fails_on_non_reduced_words(monkeypatch):
    enumerate_reduced = RelativeRootSystem.weyl_enumerate

    def padded(self):
        return [WeylElement(w.word + (0, 0)) for w in enumerate_reduced(self)]

    monkeypatch.setattr(RelativeRootSystem, "weyl_enumerate", padded)
    checks = [c for c in suites.weyl_checks(0) if c["name"] == "weyl_exhaustive"]
    assert [c["pass"] for c in checks] == [False, False, False]


def test_verify_local_passes(capsys):
    code, out = run(
        capsys, "verify-local", "--q", "3", "--s-grid", "1,2",
        "--output-format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] and payload["failed"] == 0


def test_plain_numeric_options_are_read(capsys):
    """--tol and --s-grid values written without padding are read: an empty
    part of the grid, as after a trailing comma, is skipped, and a tolerance
    below the depth's tail bound reports the shell sums as not converged."""
    code, out = run(capsys, "verify-local", "--q", "3", "--s-grid", "2,5/2,",
                    "--tol", "1e-9", "--output-format", "json")
    assert code == EXIT_OK and json.loads(out)["total"] == 6
    code, _ = run(capsys, "verify-local", "--q", "3", "--s-grid", "2", "--tol", "1e-300")
    assert code == EXIT_VERIFY


def test_verify_arch_passes(capsys):
    code, out = run(capsys, "verify-arch", "--output-format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["pass"]


def test_verify_all_reports_known_ratio_discrepancy(capsys, monkeypatch):
    monkeypatch.setenv("GK_SEED", "7")
    code, out = run(
        capsys, "verify-all", "--q", "3", "--s-grid", "1",
        "--output-format", "json",
    )
    payload = json.loads(out)
    # the C-type ratio check is reported with its rule and the measured
    # pole profile it was checked against
    assert code == EXIT_OK
    # 99 checks at the default grid less 3 shell checks for each of the
    # 11 (q, s) points this run leaves out
    assert payload["total"] == len(payload["checks"]) == 99 - 3 * 11
    assert payload["failed"] == 0
    c_checks = [
        c for c in payload["checks"]
        if c["name"] == "pole_ratio"
        and c["inputs"].get("relative_type", "").startswith("C")
    ]
    assert len(c_checks) == 1
    check = c_checks[0]
    assert check["pass"]
    rule = check["rule"]
    assert (rule["numerator"], rule["denominator"], rule["ratio"]) == (
        "short", "long", "2"
    )
    assert check["observed"] == {"short": "2", "long": "1"}


@pytest.mark.parametrize("seed", ["abc", "", "1.5", "1_0", " 7 ", "\u0663"])
def test_malformed_gk_seed_exits_with_one_line_error(capsys, monkeypatch, seed):
    monkeypatch.setenv("GK_SEED", seed)
    assert main(["verify-all", "--q", "2", "--s-grid", "1"]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: GK_SEED must be a decimal integer, got {seed!r}\n"


def test_schema_error_exit_code(tmp_path, capsys):
    path = write_spec(tmp_path, {"diagram": "Q9"})
    code = main(["classify", "--input", str(path)])
    capsys.readouterr()
    assert code == EXIT_SCHEMA


def test_missing_file_exit_code(capsys):
    code = main(["classify", "--input", "/nonexistent/file.json"])
    capsys.readouterr()
    assert code == EXIT_SCHEMA


def test_bad_automorphism_exit_code(tmp_path, capsys):
    path = write_spec(
        tmp_path, {"diagram": "A3", "automorphism": [1, 0, 2],
                    "automorphism_order": 2}
    )
    code = main(["classify", "--input", str(path)])
    capsys.readouterr()
    assert code == EXIT_SCHEMA


def test_load_spec_defaults(tmp_path):
    path = write_spec(tmp_path, {"diagram": "G2"})
    ctx = load_spec(path)
    assert ctx["chi"] == UnramifiedCharacter.trivial(2)
    assert len(ctx["weyl"].word) == 6  # defaults to the longest element


def test_load_spec_function_field_mode(tmp_path):
    path = write_spec(
        tmp_path,
        {"diagram": "A1", "mode": {"function": 5},
         "chi_exponent": [["1/2", "3"]]},
    )
    ctx = load_spec(path)
    chi = ctx["chi"]
    assert chi.q == 5
    assert chi.exponents[0].im == 0  # reduced mod the triviality lattice


def test_explicit_cartan_input(tmp_path, capsys):
    path = write_spec(
        tmp_path,
        {"diagram": {"cartan": [[2, -1], [-3, 2]]}, "label": "custom"},
    )
    code, out = run(capsys, "classify", "--input", path, "--output-format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["components"][0]["type"] == "G2"


@pytest.mark.parametrize(
    "spec, argv",
    [
        ({"diagram": {"cartan": "x"}}, None),
        ({"diagram": "A1", "chi_exponent": ["1/0"]}, None),
        ({"diagram": "A3", "automorphism": [2, 1, 0],
          "automorphism_order": "x"}, None),
        ({"diagram": "A1", "res_degree": "x"}, None),
        ({"diagram": "A2", "lambda_direction": ["x", "1"]}, None),
        ({"diagram": "A3", "lambda_direction": [1.5, 0, 0]}, ["constant-term"]),
        ({"diagram": "A1", "chi_exponent": [[1.5, 0]]}, ["constant-term"]),
        ({"diagram": "A1", "mode": {"function": 1}}, None),
        ({"diagram": "A1", "mode": {"function": 6}}, None),
        ({"diagram": "A2", "weyl_word": "01"}, None),
        ({"diagram": "A1", "mode": {"function": 2**61 - 1}}, None),
        ({"diagram": "A1", "label": [1, {"x": None}]}, None),
        ({"diagram": "A²"}, None),
        ({"diagram": "A" + "9" * 5000}, None),
        ('{"diagram": "A1", "res_degree": %s}' % ("9" * 5000), None),
        ({"diagram": "A1", "chi_exponent": ["1e5000"]}, ["constant-term"]),
        ({"diagram": "A2", "lambda_direction": ["1e5000", "1"]}, ["constant-term"]),
        ({"diagram": "A1", "chi_exponent": ["1e99999999"]}, ["constant-term"]),
        ({"diagram": "A2", "lambda_direction": ["1e-99999999", "1"]}, ["constant-term"]),
        (None, ["verify-local", "--q", "1"]),
        (None, ["verify-local", "--q", "6", "--s-grid", "1"]),
        (None, ["verify-local", "--s-grid", "0"]),
        (None, ["verify-local", "--depth", "0"]),
        (None, ["tables", "--res-degree", "0"]),
        (None, ["verify-local", "--depth", "1000000"]),
        (None, ["verify-local", "--depth", "x"]),
        (None, ["verify-local", "--tol", "nan"]),
        (None, ["verify-local", "--q", "65536"]),
        (None, ["verify-local", "--q", str(2**61 - 1)]),  # a prime, too large for trial division
        (None, ["verify-local", "--s-grid", "1e-400"]),
        (None, ["verify-local", "--s-grid", "1e400"]),
        (None, ["verify-local", "--s-grid", "1/1001"]),
        (None, ["verify-local", "--s-grid", ""]),
        (None, ["verify-all", "--s-grid", ","]),
        (None, ["verify-arch", "--depth", "7"]),
        (None, ["verify-arch", "--tol", "1e-8"]),
        (None, ["verify-arch", "--q", "5"]),
        (None, ["verify-arch", "--s-grid", "2"]),
        ({"diagram": {"cartan": [[2, -1], []]}}, None),
        ({"diagram": {"cartan": [[3]]}}, None),
        ({"diagram": {"cartan": [[2, 1], [1, 2]]}}, None),
        ({"diagram": {"cartan": [[2, -1], [0, 2]]}}, None),
        ([1], None),
        ({"x": 1}, None),
        ({"diagram": "A"}, None),
        ({"diagram": "4A"}, None),
        ({"diagram": "A2", "chi_exponent": [0]}, None),
        ({"diagram": "A1", "res_degree": int("9" * 101)}, None),
        ({"diagram": "A1", "chi_exponent": ["1/" + "9" * 101]}, ["constant-term"]),
        ({**README_SPEC, "lambda_directon": ["1", "1"]}, ["constant-term"]),
        ({"diagram": {"cartan": [[2]], "cartan_matrix": [[2]]}}, None),
        ({"diagram": "A1", "mode": {"function": 9, "q": 9}}, None),
        (None, ["tables", "--res-degree", "9" * 101]),
        (None, ["tables", "--res-degree", "9" * 4300]),
        (None, ["verify-local", "--q", "2", "--s-grid", "1_0"]),
        ({"diagram": "A1", "chi_exponent": ["1_0"]}, None),
        (None, ["verify-local", "--q", "1_1"]),
        (None, ["verify-local", "--q", "\u0663"]),
        (None, ["verify-local", "--depth", "1_0"]),
        (None, ["tables", "--res-degree", "1_0"]),
        (None, ["verify-local", "--q", "2", "--s-grid", "2", "--tol", "1_0e-9"]),
        (None, ["verify-local", "--q", "2", "--s-grid", "2", "--tol", "\u0663e-9"]),
        (None, ["verify-local", "--q", "2", "--s-grid", "2", "--tol", " 1e-9"]),
        (None, ["verify-local", "--q", "2", "--s-grid", "2", "--tol", "1e-9\n"]),
        (None, ["verify-local", "--q", "2", "--s-grid", " 1/2 "]),
        (None, ["verify-local", "--q", "2", "--s-grid", "1, 2"]),
        ({"diagram": "A1", "chi_exponent": [" 1/2 "]}, ["constant-term"]),
        ({"diagram": "A2", "lambda_direction": ["1", "1\n"]}, ["constant-term"]),
        ({"diagram": "A2", "lambda_direction": ["1", "1 / 2"]}, ["constant-term"]),
    ],
    ids=["cartan", "chi-zero-denominator", "automorphism-order", "res-degree",
         "direction", "direction-float", "chi-exponent-pair-float", "function-field-q", "function-field-q-not-prime-power",
         "weyl-word-string", "function-field-q-huge", "label-not-string",
         "diagram-superscript-rank",
         "diagram-huge-rank", "json-integer-over-4300-digits", "chi-exponent-form-huge",
         "direction-exponent-form-huge", "chi-exponent-form-hangs",
         "direction-exponent-form-hangs", "q", "q-not-prime-power", "s-grid", "depth",
         "tables-res-degree", "depth-over-cap", "depth-not-int", "tol-nan",
         "q-over-cap", "q-huge", "s-grid-tiny", "s-grid-huge", "s-grid-below-range",
         "s-grid-empty", "s-grid-comma",
         "verify-arch-depth", "verify-arch-tol", "verify-arch-q", "verify-arch-s-grid",
         "cartan-ragged", "cartan-diagonal", "cartan-positive-entry", "cartan-one-sided-zero",
         "spec-not-object", "spec-without-diagram", "diagram-without-rank",
         "diagram-rank-first", "chi-exponent-wrong-rank", "res-degree-101-digits",
         "chi-exponent-101-digit-denominator", "spec-unknown-key", "diagram-unknown-key",
         "mode-unknown-key", "tables-res-degree-101-digits",
         "tables-res-degree-4300-digits", "s-grid-underscore", "chi-exponent-underscore",
         "q-underscore", "q-arabic-indic-digit", "depth-underscore",
         "res-degree-underscore", "tol-underscore", "tol-arabic-indic-digit", "tol-padded",
         "tol-newline", "s-grid-padded", "s-grid-space-after-comma", "chi-exponent-padded",
         "direction-newline", "direction-inner-space"],
)
def test_malformed_input_exits_with_one_line_error(tmp_path, capsys, spec, argv):
    """A spec runs under ``classify``, or under the command ``argv`` names."""
    if spec is not None:
        argv = (argv or ["classify"]) + ["--input", write_spec(tmp_path, spec)]
    start = time.monotonic()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    assert time.monotonic() - start < 1.0
    assert code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_misspelt_spec_key_is_named(tmp_path, capsys):
    """A misspelt key is not read, so the run would use its default, here
    w0 in place of the README's word; it exits 2 and names the key."""
    spec = dict(README_SPEC)
    spec["weyl_wrd"] = spec.pop("weyl_word")
    assert main(["constant-term", "--input", write_spec(tmp_path, spec)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == "error: unknown key 'weyl_wrd' in spec file\n"


def _affine_cycle(n):
    """The Cartan matrix of affine A_{n-1}: n nodes joined in a cycle."""
    return [[2 if i == j else -1 if (i - j) % n in (1, n - 1) else 0 for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize(
    "cartan",
    [[[2, -2], [-2, 2]], [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
     [[2, -1], [-4, 2]], [[2, -3], [-3, 2]], _affine_cycle(roots.MAX_NODES)],
    ids=["affine-A1", "affine-A2-cycle", "affine-A2-twisted", "hyperbolic",
         "affine-A11-cycle"],
)
def test_cartan_not_of_finite_type_exits_with_one_line_error(tmp_path, capsys, cartan):
    path = write_spec(tmp_path, {"diagram": {"cartan": cartan}})
    assert main(["classify", "--input", path]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Cartan matrix is not of finite type\n"


@pytest.mark.parametrize("cartan", [[[2, -2], [-2, 2]], _affine_cycle(roots.MAX_NODES)],
                         ids=["affine-A1", "affine-A11-cycle"])
def test_runaway_root_generation_is_an_invariant_breach(tmp_path, capsys, monkeypatch, cartan):
    """Were a Cartan matrix not of finite type to pass validation, its roots
    would never end; the bound on their number turns that into exit 3, also
    at the node limit, where a finite type has the most roots."""
    monkeypatch.setattr(roots, "_validate_cartan", lambda cartan: None)
    path = write_spec(tmp_path, {"diagram": {"cartan": cartan}})
    assert main(["classify", "--input", path]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: RootSystemError: "
                            "Cartan matrix is not of finite type\n")


@pytest.mark.parametrize("module, name, argv, exc, err", [
    (cli, "constant_term", ["constant-term", "--input", "{spec}"],
     KeyError("missing\nsecond line"), "KeyError: 'missing\\nsecond line'"),
    (suites, "arch_checks", ["verify-arch"],
     ZeroDivisionError("division by zero\nsecond line"),
     "ZeroDivisionError: division by zero"),
], ids=["constant-term", "verify-arch"])
def test_other_exceptions_exit_3(tmp_path, capsys, monkeypatch, module, name, argv, exc,
                                 err):
    """Any other exception a command raises exits 3 with one stderr line
    naming its class and the first line of its message."""
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(module, name, fail)
    path = write_spec(tmp_path, {"diagram": "A2"})
    assert main([a.format(spec=path) for a in argv]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {err}\n"


def test_oracle_error_keeps_check_name(capsys, monkeypatch):
    def not_converged(*args):
        raise NotConverged("increase depth or tolerance")

    monkeypatch.setattr(suites, "gk_integral_su21_inert", not_converged)
    code, out = run(capsys, "verify-local", "--q", "3", "--s-grid", "1",
                    "--output-format", "json")
    assert code == EXIT_VERIFY
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [
        ("sl2_shell", True), ("su21_inert_shell", False),
        ("sl3_factorization", True),
    ]
    assert checks[1]["error"] == "increase depth or tolerance"


def test_classify_degree_table_per_component(tmp_path, capsys):
    """Swapping two of three orthogonal A1 nodes folds to A1 x A1 with
    d_alpha 2 on one component and 1 on the other: one table each."""
    path = write_spec(
        tmp_path,
        {
            "diagram": {"cartan": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]},
            "automorphism": [1, 0, 2],
            "automorphism_order": 2,
        },
    )
    code, out = run(capsys, "classify", "--input", path, "--output-format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["degree_table"] == [{"all": 2}, {"all": 1}]
