"""Child processes of the gkval benchmark; run.py starts them with src/ on PYTHONPATH.

    worker.py setup              fold the weyl-sweep systems once, then exit
    worker.py sweep SEED TRACE   fold the weyl-sweep systems, then run one pass for
                                 each stdin line and print one JSON line for it; at
                                 the end of stdin print the peak RSS and exit
    worker.py cli TRACE ARG...   gkval.cli.main(ARG...) with stdout captured, under a
                                 LayerTrace if TRACE is 1; prints one JSON object
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
import time
from fractions import Fraction

import layers
import reference
from seeded import PRIME_POWERS, rational

roots = importlib.import_module("gkval.roots")
characters = importlib.import_module("gkval.characters")
constant_term = importlib.import_module("gkval.constant_term")

PASS_OPS = 45  # five operations on each of the nine systems
MAX_PROBLEMS = 20  # problems reported in full; all failures are counted


def sweep_data() -> list:
    """The weyl-sweep systems: every relative type and rank-one kind the
    sweep exercises, folded once in set-up."""
    return [
        roots.split_datum("F", 4),
        roots.split_datum("B", 6),
        roots.split_datum("D", 6),
        roots.split_datum("E", 6),
        roots.quasi_split_e6_datum(2),
        roots.triality_datum(),
        roots.su_datum(4, 4, 2),
        roots.su_datum(4, 5),
        roots.spin_minus_datum(6),
    ]


def reduced_walk(rng: random.Random, cartan: tuple, length: int) -> list[int]:
    """A random reduced word of the given length: each letter is drawn from
    the simple reflections s with w(alpha_s) > 0, so the length grows by one.
    The Weyl action is computed here, from the Cartan matrix alone."""
    n = len(cartan)
    word: list[int] = []
    while len(word) < length:
        ascents = []
        for s in range(n):
            v = [int(i == s) for i in range(n)]
            for j in reversed(word):  # v <- s_j v, rightmost letter first
                v[j] -= sum(v[i] * cartan[i][j] for i in range(n))
            if all(c >= 0 for c in v):
                ascents.append(s)
        word.append(rng.choice(ascents))
    return word


def draw_ops(rng: random.Random, systems: list, count: int) -> list[tuple]:
    """Seeded operations, cycling through the systems so that every pass
    holds the same mix and costs alike.  The k-th visit to a system in a pass
    takes an element of length (2k + 1) / (2 * visits) of |positive roots|,
    written as a random reduced word with half as many cancelling pairs s s
    inserted at random places, and a character whose kind alternates."""
    ops = []
    visits = count // len(systems)
    for i in range(count):
        system = systems[i % len(systems)]
        n, visit = system.rank, i // len(systems)
        target = max(1, round((2 * visit + 1) / (2 * visits) * len(system.positive_roots)))
        word = reduced_walk(rng, system.cartan, target)
        for _ in range(target // 2):
            at, letter = rng.randint(0, len(word)), rng.randrange(n)
            word[at:at] = [letter, letter]
        base = tuple(rational(rng) for _ in range(n))
        direction = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n))
        exponents = tuple(
            characters.RationalComplex(rational(rng), rational(rng)) for _ in range(n)
        )
        if visit % 2 == 0:
            chi = characters.UnramifiedCharacter(exponents)
        else:
            chi = characters.UnramifiedCharacter(
                exponents, characters.FUNCTION_MODE, rng.choice(PRIME_POWERS)
            )
        ops.append((system, tuple(word), target, base, direction, chi, rng.random()))
    return ops


def run_op(op: tuple) -> tuple[float, list[str]]:
    """Time one operation, then check it; returns (seconds, problems)."""
    system, word, target, base, direction, chi, cut_at = op
    start = time.perf_counter()
    w = system.normalize(word)
    report = constant_term.constant_term(system, chi, direction, w, base)
    poles = constant_term.pole_profile(
        system, chi, direction=direction, base=base, w=w,
        variable="ray", include_conditional=True,
    )
    # a prefix and suffix of a reduced word are reduced and their lengths add
    cut = int(cut_at * (len(w.word) + 1))
    holds = constant_term.multiplicativity_check(
        system, chi, direction,
        roots.WeylElement(w.word[:cut]), roots.WeylElement(w.word[cut:]), base,
    )
    elapsed = time.perf_counter() - start
    problems = []
    label = f"{system.datum.label} word {list(word)}"
    if not holds:
        problems.append(f"{label}: multiplicativity_check failed")
    if len(report.factors) != len(w.word):
        problems.append(f"{label}: |inv(w)| = {len(report.factors)} != l(w) = {len(w.word)}")
    if len(w.word) != target:
        problems.append(f"{label}: reduced to length {len(w.word)}, built with length {target}")
    if any(e.location <= 0 for e in poles):
        problems.append(f"{label}: pole_profile reported a pole off the positive axis")
    return elapsed, problems


def run_pass(ops: list[tuple], out: dict) -> tuple[list[float], list[float], list[float]]:
    """Runs the operations with the reference computation between every two.
    Returns their times, each time over the mean of the reference times on
    either side, and the reference times."""
    times, rel, refs = [], [], [reference.timed(reference.INPROC_STEPS)]
    for op in ops:
        out["attempted"] += 1
        try:
            elapsed, problems = run_op(op)
            refs.append(reference.timed(reference.INPROC_STEPS))
            times.append(elapsed)
            rel.append(2 * elapsed / (refs[-2] + refs[-1]))
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            problems = [f"{op[0].datum.label} word {list(op[1])}: {exc!r}"]
        if problems:
            out["failed"] += 1
            out["problems"].extend(problems[: MAX_PROBLEMS - len(out["problems"])])
    return times, rel, refs


def sweep(seed: int, trace: bool) -> None:
    """The weyl-sweep loop, one pass per stdin line.  Untraced, each pass
    draws fresh operations.  Traced, each pass runs the first pass's
    operations twice, without and then with the LayerTrace, so that counts
    repeat exactly and the difference of the two times is the overhead."""
    systems = [roots.restrict_roots(d) for d in sweep_data()]
    rng = random.Random(f"weyl-sweep:{seed}")
    first = draw_ops(rng, systems, PASS_OPS)
    tracer = layers.LayerTrace() if trace else None
    ops = first
    for _ in sys.stdin:
        out = {"attempted": 0, "failed": 0, "problems": []}
        out["op_s"], out["op_rel"], out["ref_s"] = run_pass(ops, out)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                out["traced_op_s"] = run_pass(first, out)[0]
            finally:
                tracer.remove()
            out["layers"] = tracer.snapshot()
        else:
            ops = draw_ops(rng, systems, PASS_OPS)
        print(json.dumps(out), flush=True)
    print(json.dumps({"peak_rss_mib": peak_rss_mib()}), flush=True)


def peak_rss_mib() -> float:
    """This process's own peak RSS (VmHWM).  wait4 would report at least the
    peak of the process that spawned it (see launcher.py)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_cli(trace: bool, argv: list[str]) -> dict:
    cli = importlib.import_module("gkval.cli")
    tracer = layers.LayerTrace()
    if trace:
        tracer.install()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    finally:
        tracer.remove()
    return {"rc": rc, "stdout": buf.getvalue(), "layers": tracer.snapshot()}


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        for datum in sweep_data():
            roots.restrict_roots(datum)
        return 0
    if mode == "sweep":
        sweep(int(args[0]), args[1] == "1")
    elif mode == "cli":
        print(json.dumps(run_cli(args[0] == "1", args[1:])))
    else:
        print(f"unknown worker mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
