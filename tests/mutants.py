"""A fixed list of hand-made mutants of ``src/gkval``, run against the tests.

Each mutant is (name, file, old text, new text).  For each one the script
copies the repository, without ``.git``, to a temporary directory,
replaces the old text by the new one there, and runs the tier-1
suite with ``-x`` and then the golden replay.  The mutant is killed when
either fails, and survives when both pass.  An old text that is not found
exactly once in the tree as it is stops the script before any run, so a
refactor cannot retire a mutant quietly: rewrite the entry instead.

Standard library only; pytest does not collect this file.  From the root
of the repository::

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

It prints one line per mutant, then "killed K / N", and exits 1 when a
mutant survives, 2 on an entry that does not apply.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a mutant that runs longer than this is counted as killed (a hang)
TIMEOUT_S = 600

MUTANTS = [
    ("SU21 scale 4 -> 2", "src/gkval/roots.py",
     "else 4 * alpha.d_alpha", "else 2 * alpha.d_alpha"),
    ("SU21 twist dropped", "src/gkval/lfactors.py",
     "            True, eta.q)", "            False, eta.q)"),
    ("twist sign", "src/gkval/lfactors.py",
     "c = -1.0 if chi.quad_twist else 1.0", "c = 1.0 if chi.quad_twist else 1.0"),
    ("SU21 2x -> x", "src/gkval/lfactors.py",
     "_quotient(twice, eta_k)", "_quotient(x, eta_k)"),
    ("greatest left descent for the least", "src/gkval/roots.py",
     "for j, x in enumerate(mu):", "for j, x in reversed(list(enumerate(mu))):"),
    ("weight reflection with the transposed Cartan entry", "src/gkval/roots.py",
     "for j, row in enumerate(self.cartan))", "for j, row in enumerate(zip(*self.cartan)))"),
    ("SU21 restriction in r_alpha not doubling", "src/gkval/lfactors.py",
     "RationalComplex(Fraction(2 * re.numerator, re.denominator),\n"
     "                            Fraction(2 * im.numerator, im.denominator))",
     "RationalComplex(re, im)"),
    ("pole boundary <= 0 -> < 0", "src/gkval/lfactors.py",
     "if top * an <= 0:", "if top * an < 0:"),
    ("conditional poles without the unitary test", "src/gkval/lfactors.py",
     "elif include_conditional and atom.character.is_unitary:",
     "elif include_conditional:"),
    ("Lanczos coefficient cut to 10 digits", "src/gkval/oracles.py",
     "676.5203681218851", "676.5203681"),
    ("SU(2,1) shell volume 1 - q^-2 -> 1 - q^-1", "src/gkval/oracles.py",
     "b_shell, c_shell = 1.0 - q ** (-2), 1.0 - 1.0 / q",
     "b_shell, c_shell = 1.0 - q ** (-1), 1.0 - 1.0 / q"),
    ("SU21 degree-parity check removed", "src/gkval/lfactors.py",
     "        if eta.degree % 2:\n"
     "            raise LFactorError(\"character lives over the wrong field\")\n", ""),
    ("checked_gamma pole tolerance 1e-12 -> 1e-6", "src/gkval/oracles.py",
     "if abs(x.imag) < 1e-12 and round(x.real) <= 0 and abs(x.real - round(x.real)) < 1e-12:",
     "if abs(x.imag) < 1e-6 and round(x.real) <= 0 and abs(x.real - round(x.real)) < 1e-6:"),
    ("d' dropped from the pairings", "src/gkval/roots.py",
     "tuple(tuple(d * c for c in vec) for vec in pairings)",
     "tuple(tuple(vec) for vec in pairings)"),
    ("sign character dropped in the real-place factor", "src/gkval/oracles.py",
     "y = (x + 1) / 2 if sign else x / 2", "y = x / 2"),
    ("sort key reads q at its index before the place kind went", "src/gkval/lfactors.py",
     "k[8] is None, k[8] or 0", "k[9] is None, k[9] or 0"),
    ("report product drops its first factor", "src/gkval/constant_term.py",
     "prod(f.product for f in self.factors)", "prod(f.product for f in self.factors[1:])"),
    ("evaluator field-size check removed", "src/gkval/lfactors.py",
     "    if not is_field_size(q):\n        raise LFactorError(",
     "    if not is_field_size(q) and False:\n        raise LFactorError("),
]


def check_entries(mutants) -> list[str]:
    """One message per entry whose old text is not found exactly once."""
    errors = []
    for name, file, old, _ in mutants:
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            errors.append(f"{name}: old text found {count} times in {file}")
    return errors


def _first_failure(output: str) -> str:
    """The first FAILED or ERROR line of pytest's summary, else its last line."""
    lines = output.strip().splitlines() or [""]
    return next((line for line in lines if line.startswith(("FAILED ", "ERROR "))), lines[-1])


def run_mutant(file: str, old: str, new: str) -> tuple[bool, str]:
    """(killed, what killed it or the passing summary) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="gkval-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", ".bench_build", "__pycache__", ".hypothesis", ".pytest_cache"))
        path = tree / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        steps = (("tier-1", [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             "--continue-on-collection-errors"]),
                 ("golden", [sys.executable, "tests/test_golden.py"]))
        for step, command in steps:
            try:
                done = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                                      text=True, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return True, f"{step}: timed out after {TIMEOUT_S} s"
            if done.returncode != 0:
                return True, f"{step}: {_first_failure(done.stdout + done.stderr)}"
        return False, "tier-1 and golden replay pass"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    errors = check_entries(chosen) + [f"{name}: no such mutant" for name in sorted(unknown)]
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2
    killed = 0
    for name, file, old, new in chosen:
        start = time.perf_counter()
        dead, why = run_mutant(file, old, new)
        killed += dead
        elapsed = time.perf_counter() - start
        print(f"{'killed' if dead else 'SURVIVED':8}  {name}  ({elapsed:.0f} s; {why})",
              flush=True)
    print(f"killed {killed} / {len(chosen)}")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
