import json

import pytest

from gkval import MeromorphicProduct, NotConverged, RelativeRootSystem, WeylElement, cli
from gkval.cli import EXIT_OK, EXIT_SCHEMA, EXIT_VERIFY, load_spec, main


def write_spec(tmp_path, payload, name="group.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
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


def test_tables_has_no_rank_option():
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--rank", "4"])
    assert exc.value.code == EXIT_SCHEMA


def test_weyl_exhaustive_fails_on_non_reduced_words(monkeypatch):
    enumerate_reduced = RelativeRootSystem.weyl_enumerate

    def padded(self, limit=4000):
        return [WeylElement(w.word + (0, 0)) for w in enumerate_reduced(self, limit)]

    monkeypatch.setattr(RelativeRootSystem, "weyl_enumerate", padded)
    checks = [c for c in cli._weyl_checks(0) if c["name"] == "weyl_exhaustive"]
    assert [c["pass"] for c in checks] == [False, False, False]


def test_verify_local_passes(capsys):
    code, out = run(
        capsys, "verify-local", "--q", "3", "--s-grid", "1,2",
        "--output-format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] and payload["failed"] == 0


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
    assert ctx["chi"].is_trivial
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
        ({"diagram": "A1", "mode": {"function": 1}}, None),
        ({"diagram": "A1", "mode": {"function": 6}}, None),
        ({"diagram": "A2", "weyl_word": "01"}, None),
        (None, ["verify-local", "--q", "1"]),
        (None, ["verify-local", "--q", "6", "--s-grid", "1"]),
        (None, ["verify-local", "--s-grid", "0"]),
        (None, ["verify-local", "--depth", "0"]),
        (None, ["tables", "--res-degree", "0"]),
    ],
    ids=["cartan", "chi-zero-denominator", "automorphism-order", "res-degree",
         "direction", "function-field-q", "function-field-q-not-prime-power",
         "weyl-word-string", "q", "q-not-prime-power", "s-grid", "depth",
         "tables-res-degree"],
)
def test_malformed_input_exits_with_one_line_error(tmp_path, capsys, spec, argv):
    if spec is not None:
        argv = ["classify", "--input", write_spec(tmp_path, spec)]
    assert main(argv) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oracle_error_keeps_check_name(capsys, monkeypatch):
    def not_converged(*args):
        raise NotConverged("increase depth or tolerance")

    monkeypatch.setattr(cli, "gk_integral_su21_inert", not_converged)
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
