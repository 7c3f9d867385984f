"""Golden corpus: sha256 digests of the CLI's JSON output.

Each key of ``tests/golden/digests.json`` is ``case:command``.  The cases
are the 45 folded table cases of ``verify-all``, the split diagrams A-D up
to rank 12 with E6-E8, F4 and G2, and the README's group spec.  The
commands are ``classify``, ``constant-term``, ``poles`` and ``poles
--variable global`` (``poles-global``), all with ``--output-format json``,
plus ``system``: the repr of the folded system's roots, Gram matrix,
Cartan matrix, components, principal ray and coroot pairings.  One
more key, ``seed0:verify-all``, pins ``verify-all`` under ``GK_SEED=0``.

A refactor must replay the corpus byte for byte.  Regenerate it only for
an output change that is intended and explained::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from gkval import family_datum, split_datum
from gkval.cli import load_spec, main

DIGESTS = Path(__file__).with_name("golden") / "digests.json"

COMMANDS = {
    "classify": ["classify"],
    "constant-term": ["constant-term"],
    "poles": ["poles"],
    "poles-global": ["poles", "--variable", "global"],
}

README_SPEC = {
    "diagram": "A4",
    "automorphism": [3, 2, 1, 0],
    "automorphism_order": 2,
    "res_degree": 1,
    "label": "2A4",
    "chi_exponent": [["1/2", "0"], ["0", "0"]],
    "lambda_direction": ["1", "1"],
    "weyl_word": [0, 1, 0],
    "mode": "number",
}


def _datum_spec(datum) -> dict:
    return {
        "diagram": {"cartan": [list(row) for row in datum.cartan]},
        "automorphism": list(datum.automorphism),
        "automorphism_order": datum.automorphism_order,
        "res_degree": datum.res_degree,
        "label": datum.label,
    }


def cases() -> list[tuple[str, dict]]:
    out = []
    # the table cases of ``verify-all``, in its order
    for dprime in (1, 2, 3):
        table = []
        for n in range(2, 7):
            table += [("SU(n,n+1)", n), ("SU(n,n)", n)]
        table += [("Spin2n-", n) for n in range(4, 7)]
        table += [("3D4", 4), ("2E6", 6)]
        for family, n in table:
            out.append((f"{family}/n={n}/d={dprime}",
                        _datum_spec(family_datum(family, n, dprime))))
    split = [("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)]
    split += [("C", r) for r in range(2, 7)] + [("D", r) for r in range(3, 7)]
    split += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2), ("B", 12)]
    split += [(family, rank) for family in "ABCD" for rank in range(7, 13)
              if (family, rank) != ("B", 12)]
    for family, rank in split:
        out.append((f"split-{family}{rank}",
                    _datum_spec(split_datum(family, rank))))
    out.append(("readme", README_SPEC))
    return out


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return f"exit {code}\n{buf.getvalue()}"


def _system_repr(path: str) -> str:
    system = load_spec(path)["system"]
    pairings = [
        tuple(Fraction(c) for c in system.coroot_pairing_vector(r))
        for r in system.positive_roots
    ]
    return repr((
        system.simple_orbits,
        system.positive_roots,
        system.gram,
        system.cartan,
        system.components,
        system.has_divisible,
        system.principal_ray(),
        pairings,
    ))


def outputs(workdir: str):
    """Yield (key, output) for the whole corpus, in a fixed order."""
    for name, spec in cases():
        path = os.path.join(workdir, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        for command, argv in COMMANDS.items():
            yield f"{name}:{command}", _run(
                argv + ["--input", path, "--output-format", "json"])
        yield f"{name}:system", _system_repr(path)
    saved = os.environ.get("GK_SEED")
    os.environ["GK_SEED"] = "0"
    try:
        yield "seed0:verify-all", _run(["verify-all", "--output-format", "json"])
    finally:
        if saved is None:
            del os.environ["GK_SEED"]
        else:
            os.environ["GK_SEED"] = saved


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_corpus_replays(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    seen = []
    for key, text in outputs(str(tmp_path)):
        seen.append(key)
        assert key in expected, f"{key} is not in the golden corpus"
        assert digest(text) == expected[key], f"first differing output: {key}"
    missing = sorted(set(expected) - set(seen))
    assert not missing, f"corpus keys not produced: {missing[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {key: digest(text) for key, text in outputs(tmp)}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
