"""Golden corpus: sha256 digests of the CLI's JSON and text output.

Each key of ``tests/golden/digests.json`` is ``case:command``.  The cases
are the 45 folded table cases of ``verify-all``, the split diagrams A-D up
to rank 12 with E6-E8, F4 and G2, and the README's group spec, once as
written and once over a function field.  The commands are ``classify``,
``constant-term``, ``poles`` and ``poles --variable global``
(``poles-global``), all with ``--output-format json``, plus ``system``:
the repr of the folded system's roots, Gram matrix, Cartan matrix,
components, principal ray and coroot pairings.  One more key,
``seed0:verify-all``, pins ``verify-all`` under ``GK_SEED=0``, and
``q=<q>:verify-local`` pins ``verify-local --depth 120`` for every prime
power q <= 11 on one s-grid of integral and non-integral s.
``d=<d>:tables`` pins ``tables --res-degree d`` for d = 1, 2, 3, and
``default:verify-arch`` pins ``verify-arch``, both in JSON.

Keys ending in ``-text`` pin ``--output-format text``: on the two README
cases and on ``3D4/n=4/d=1``, ``classify``, ``constant-term``
(``-local-text`` with ``--variable local``) and ``poles``
(``poles-global-text`` with ``--variable global``),
and ``seed0:verify-all-text``, ``q=2:verify-local-text``,
``d=2:tables-text`` and ``default:verify-arch-text``.

A refactor must replay the corpus byte for byte.  The script replays it
on any Python the package supports, with no test runner, and exits 1 on a
difference; ``--write`` regenerates it, only for an output change that is
intended and explained::

    PYTHONPATH=src python tests/test_golden.py
    PYTHONPATH=src python tests/test_golden.py --write
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

# the text output of the README specs, pinned with --output-format text
TEXT_COMMANDS = {
    "classify-text": ["classify"],
    "constant-term-text": ["constant-term"],
    "constant-term-local-text": ["constant-term", "--variable", "local"],
    "poles-text": ["poles"],
    "poles-global-text": ["poles", "--variable", "global"],
}
# the triality case, where poles-text (the ray variable) and poles-global-text
# differ; on the README cases they agree
TEXT_CASES = ("readme", "readme-function", "3D4/n=4/d=1")

LOCAL_QS = (2, 3, 4, 5, 7, 8, 9, 11)
LOCAL_ARGV = ["verify-local", "--depth", "120", "--s-grid", "1,2,3,1/2,2/3,5/4,12/5"]

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

# the README spec over a function field: the imaginary parts are reduced
# modulo the triviality lattice, and every atom's JSON records q
README_FUNCTION_SPEC = {
    **README_SPEC,
    "label": "2A4-function",
    "chi_exponent": [["1/2", "3/4"], ["0", "5/3"]],
    "mode": {"function": 9},
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
    out.append(("readme-function", README_FUNCTION_SPEC))
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
        if name in TEXT_CASES:
            for command, argv in TEXT_COMMANDS.items():
                yield f"{name}:{command}", _run(
                    argv + ["--input", path, "--output-format", "text"])
    saved = os.environ.get("GK_SEED")
    os.environ["GK_SEED"] = "0"
    try:
        yield "seed0:verify-all", _run(["verify-all", "--output-format", "json"])
        yield "seed0:verify-all-text", _run(["verify-all", "--output-format", "text"])
    finally:
        if saved is None:
            del os.environ["GK_SEED"]
        else:
            os.environ["GK_SEED"] = saved
    for q in LOCAL_QS:
        yield f"q={q}:verify-local", _run(
            LOCAL_ARGV + ["--q", str(q), "--output-format", "json"])
    yield "q=2:verify-local-text", _run(
        LOCAL_ARGV + ["--q", "2", "--output-format", "text"])
    for dprime in (1, 2, 3):
        yield f"d={dprime}:tables", _run(
            ["tables", "--res-degree", str(dprime), "--output-format", "json"])
    yield "d=2:tables-text", _run(["tables", "--res-degree", "2", "--output-format", "text"])
    yield "default:verify-arch", _run(["verify-arch", "--output-format", "json"])
    yield "default:verify-arch-text", _run(["verify-arch", "--output-format", "text"])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def differences(workdir: str) -> list[str]:
    """The corpus keys whose output differs, in corpus order, then the keys
    produced but not in the corpus and those in it but not produced."""
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    seen, bad = set(), []
    for key, text in outputs(workdir):
        seen.add(key)
        if key not in expected:
            bad.append(f"{key} (not in the corpus)")
        elif digest(text) != expected[key]:
            bad.append(key)
    return bad + [f"{key} (not produced)" for key in sorted(set(expected) - seen)]


def test_golden_corpus_replays(tmp_path):
    bad = differences(str(tmp_path))
    assert not bad, f"differing outputs: {bad[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--write"]):
        print(f"usage: {sys.argv[0]} [--write]", file=sys.stderr)
        sys.exit(2)
    with tempfile.TemporaryDirectory() as tmp:
        if sys.argv[1:] == ["--write"]:
            table = {key: digest(text) for key, text in outputs(tmp)}
            DIGESTS.parent.mkdir(exist_ok=True)
            DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
        else:
            bad = differences(tmp)
            for key in bad:
                print(f"differs: {key}", file=sys.stderr)
            print(f"{len(bad)} differences from the corpus", file=sys.stderr)
            sys.exit(1 if bad else 0)
