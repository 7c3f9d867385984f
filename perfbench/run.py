#!/usr/bin/env python3
"""The gkval benchmark: end-to-end CLI timings and per-layer call timing.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is taken from src/.
Without --workload every workload runs in turn.  Each workload is a closed
loop with one client: the next operation starts when the previous one has
ended.  Every output is checked, a table of the metrics goes to stdout, and
the last line is one JSON object.  --trace 1 reports the per-layer metrics
of perfbench/layers.py instead of the end-to-end ones.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"  # generated spec files and child output

DEFAULT_SEED = 1
SETUP_REPEATS = 4  # set-up samples before the timed loop; one more follows each pass

sys.path.insert(0, str(HERE))
import layers  # noqa: E402  (layers, reference and seeded import nothing of gkval)
import reference  # noqa: E402
from seeded import PRIME_POWERS, rational  # noqa: E402

# The machine runs in speed phases of seconds to minutes (README, Noise), so
# every timed child is paced by the reference child (reference.py), spawned
# just before and just after it.  The child's time over the mean of the two
# reference times cancels the phase; reference.SPAWNED_S turns that ratio
# back into seconds.  weyl-sweep does the same in its worker, in process.
REF_ARGV = [sys.executable, str(HERE / "reference.py")]

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
TRACE_UNITS = {**layers.UNITS, "trace_overhead_s": "s"}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    wall_s: float
    rc: int
    stdout: bytes
    stderr: bytes
    peak_rss_mib: float


def child_env(env: dict[str, str] | None = None) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))


class Launcher:
    """Spawns and times every child through launcher.py, a small process, so
    that a child's peak RSS is its own and not the benchmark's (see there)."""

    def __init__(self) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.out, self.err = WORK / "child.out", WORK / "child.err"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-I", str(HERE / "launcher.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, argv: list[str], env: dict[str, str] | None = None) -> Child:
        request = {"argv": argv, "env": child_env(env),
                   "stdout": str(self.out), "stderr": str(self.err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended")
        wall, rc, rss_kib = json.loads(reply)
        return Child(wall, rc, self.out.read_bytes(), self.err.read_bytes(), rss_kib / 1024)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Paced:
    """Spawns children with a reference child between every two of them.
    ``spawn`` returns the child and its time at the reference speed: its
    wall time times reference.SPAWNED_S over the mean of the reference
    times on either side."""

    def __init__(self, launcher: Launcher) -> None:
        self.launcher = launcher
        self.refs = [self._reference()]

    def _reference(self) -> float:
        return self.launcher.spawn(REF_ARGV).wall_s

    def spawn(self, argv: list[str], env: dict[str, str] | None = None) -> tuple[Child, float]:
        child = self.launcher.spawn(argv, env)
        self.refs.append(self._reference())
        return child, child.wall_s * 2 * reference.SPAWNED_S / (self.refs[-2] + self.refs[-1])


class Setup:
    """Start-up time of a fresh process at the reference speed: a discarded
    warm-up, which writes the bytecode caches, then SETUP_REPEATS samples
    before the timed loop and one after each pass, so that the median spans
    the same stretch of machine time as the passes."""

    def __init__(self, paced: Paced, argv: list[str]) -> None:
        self.paced, self.argv = paced, argv
        paced.launcher.spawn(argv)
        self.samples: list[float] = []
        for _ in range(SETUP_REPEATS):
            self.sample()

    def sample(self) -> None:
        self.samples.append(self.paced.spawn(self.argv)[1])


def timed_loop(seconds: float, one_pass, setup: Setup | None) -> None:
    """Closed loop: whole passes until ``seconds`` have gone, at least one.
    ``one_pass`` returns False to stop early."""
    deadline = time.perf_counter() + seconds
    while one_pass():
        if setup is not None:
            setup.sample()
        if time.perf_counter() >= deadline:
            return


# ---------------------------------------------------------------------------
# workloads run through the CLI


@dataclass
class Op:
    key: str  # names the input; repeated runs of one key must print the same bytes
    argv: list[str]  # arguments of gkval.cli
    env: dict[str, str] = field(default_factory=dict)


def verify_all_ops(seed: int) -> list[Op]:
    gk_seed = random.Random(f"verify-all:{seed}").randrange(1 << 31)
    return [Op("verify-all", ["verify-all", "--output-format", "json"], {"GK_SEED": str(gk_seed)})]


# key -> (spec without the character, relative rank, positive roots of the relative type)
LARGE_INPUTS = {
    "E8": ({"diagram": "E8", "label": "E8"}, 8, 120),
    "B12": ({"diagram": "B12", "label": "B12"}, 12, 144),
    "2E6": ({"diagram": "E6", "automorphism": [5, 1, 4, 3, 2, 0], "automorphism_order": 2,
             "label": "2E6"}, 4, 24),  # relative type F4
    "SU6-6-d3": ({"diagram": "A11", "automorphism": list(range(10, -1, -1)),
                  "automorphism_order": 2, "res_degree": 3, "label": "SU(6,6)"}, 6, 36),  # C6
}

# sha256 of the constant-term stdout of each input at DEFAULT_SEED
LARGE_DIGESTS = {
    "E8": "17e713b9a721d0a677e88192481983187ec2688423369301ecb3bf830cf6d5ed",
    "B12": "f74f3bc107b4e32a521d4261f7cda5fcf5a0621e9bbcdf37a73ca2e34a86fdc6",
    "2E6": "29a6acd81b4c7d2f36fcdb52e0a982bdd6c2cb940b6db3cc4f3057e6a1bf566b",
    "SU6-6-d3": "a2245f60956415936543f1ba4737ece2bf2a6d8de2a5f5512e9a9fce4bbb4430",
}


def constant_term_ops(seed: int) -> list[Op]:
    rng = random.Random(f"constant-term-large:{seed}")
    WORK.mkdir(parents=True, exist_ok=True)
    ops = []
    for key, (spec, rank, _) in LARGE_INPUTS.items():
        chi = [[str(rational(rng)), str(rational(rng))] for _ in range(rank)]
        path = WORK / f"{key}.json"
        path.write_text(json.dumps({**spec, "chi_exponent": chi}, sort_keys=True))
        ops.append(Op(key, ["constant-term", "--input", str(path.relative_to(ROOT)),
                            "--output-format", "json"]))
    return ops


ORACLE_DEPTH = 120  # every shell tail is below 1e-10 for q >= 2 and s >= 1/2
S_CANDIDATES = sorted({Fraction(a, b) for b in range(1, 7) for a in range(1, 19)
                       if Fraction(1, 2) <= Fraction(a, b) <= 3})


def oracle_grid_ops(seed: int) -> list[Op]:
    rng = random.Random(f"oracle-grid:{seed}")
    grid = ",".join(str(s) for s in sorted(rng.sample(S_CANDIDATES, 8)))
    ops = [
        Op(f"verify-local-{i}", ["verify-local", "--q", str(rng.choice(PRIME_POWERS)),
                                 "--s-grid", grid, "--depth", str(ORACLE_DEPTH),
                                 "--output-format", "json"])
        for i in range(8)
    ]
    ops.append(Op("verify-arch", ["verify-arch", "--output-format", "json"]))
    return ops


# -- correctness checks, computed without the code under test ---------------

SHELL_FORMS = {
    "sl2_shell": (lambda q, s: (1 - q ** -(1 + s)) / (1 - q ** -s), 1e-10),
    "su21_inert_shell": (lambda q, s: (1 - q ** (-2 * (1 + s))) / (1 - q ** (-2 * s))
                         * (1 + q ** -(1 + 2 * s)) / (1 + q ** (-2 * s)), 1e-9),
    "sl3_factorization": (lambda q, s: ((1 - q ** -(1 + s)) / (1 - q ** -s)) ** 2
                          * (1 - q ** -(1 + 2 * s)) / (1 - q ** (-2 * s)), 1e-10),
}


def shell_problems(checks: list[dict]) -> list[str]:
    """Compare each shell-sum value with the closed form recomputed here."""
    problems = []
    for c in checks:
        if c["name"] not in SHELL_FORMS:
            continue
        form, tol = SHELL_FORMS[c["name"]]
        q, s = c["inputs"]["q"], float(Fraction(c["inputs"]["s"]))
        observed = complex(*c["observed"])
        if not abs(observed - form(q, s)) < tol:
            problems.append(f"{c['name']} q={q} s={c['inputs']['s']}: {observed} is off the closed form")
    return problems


def is_known_failure(check: dict) -> bool:
    """The documented C-type pole-ratio discrepancy (README, known issue)."""
    return (check["name"] == "pole_ratio"
            and check["inputs"].get("relative_type", "").startswith("C"))


def check_verify_all(op: Op, rc: int, payload: dict) -> tuple[list[str], int]:
    checks = payload["checks"]
    failing = [c for c in checks if not c["pass"]]
    known = [c for c in failing if is_known_failure(c)]
    problems = [f"check {c['name']} {c.get('inputs')} failed"
                for c in failing if not is_known_failure(c)]
    if len(checks) != 99 or payload["total"] != 99:
        problems.append(f"{len(checks)} checks, expected 99")
    if payload["failed"] != len(failing):
        problems.append("the failed count disagrees with the checks")
    if rc != (1 if failing else 0):
        problems.append(f"exit code {rc} with {len(failing)} failing checks")
    return problems + shell_problems(checks), len(known)


def check_oracle(op: Op, rc: int, payload: dict) -> tuple[list[str], int]:
    checks = payload["checks"]
    if op.argv[0] == "verify-local":
        expected = 3 * len(op.argv[op.argv.index("--s-grid") + 1].split(","))
    else:
        expected = 4  # one constancy check per archimedean case, one duplication check
    problems = [f"check {c['name']} {c.get('inputs')} failed" for c in checks if not c["pass"]]
    if rc != 0 or payload["failed"] != 0 or not payload["pass"]:
        problems.append(f"exit code {rc}, {payload['failed']} failed")
    if len(checks) != expected:
        problems.append(f"{len(checks)} checks, expected {expected}")
    return problems + shell_problems(checks), 0


def _atom_key(atom: dict) -> str:
    return json.dumps({k: v for k, v in atom.items() if k != "exponent"}, sort_keys=True)


def check_constant_term(op: Op, rc: int, payload: dict) -> tuple[list[str], int]:
    positive = LARGE_INPUTS[op.key][2]
    factors = payload["factors"]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if len(factors) != positive:
        problems.append(f"{len(factors)} factors, the relative type has {positive} positive roots")
    if payload["length"] != len(factors) or len(payload["weyl_word"]) != len(factors):
        problems.append("length, weyl word and factor count disagree")
    merged = Counter()
    for f in factors:
        for atom in f["factor"]:
            merged[_atom_key(atom)] += atom["exponent"]
    product = Counter()
    for atom in payload["product"]:
        product[_atom_key(atom)] += atom["exponent"]
    if len(product) != len(payload["product"]) or {k: n for k, n in merged.items() if n} != product:
        problems.append("product is not the merged multiset of the factor atoms")
    return problems, 0


# name -> (inputs from a seed, checks of one output)
CLI_WORKLOADS = {
    "verify-all": (verify_all_ops, check_verify_all),
    "constant-term-large": (constant_term_ops, check_constant_term),
    "oracle-grid": (oracle_grid_ops, check_oracle),
}
WORKLOADS = ("verify-all", "constant-term-large", "weyl-sweep", "oracle-grid")


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons."""
    attempted: int = 0
    failed: int = 0
    known_failures: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)


def judge(check, op: Op, rc: int, stdout: bytes, seed: int, tally: Tally) -> None:
    tally.attempted += 1
    digest = hashlib.sha256(stdout).hexdigest()
    try:
        problems, known = check(op, rc, json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        tally.fail([f"{op.key}: exit code {rc}, unreadable output ({exc!r})"])
        return
    if tally.digests.setdefault(op.key, digest) != digest:
        problems.append("stdout differs from the first run of the same input")
    if seed == DEFAULT_SEED and op.key in LARGE_DIGESTS and LARGE_DIGESTS[op.key] != digest:
        problems.append("stdout differs from the digest recorded for the default seed")
    tally.known_failures = max(tally.known_failures, known)
    if problems:
        tally.fail([f"{op.key}: {p}" for p in problems])


def run_cli_workload(launcher: Launcher, name: str, seed: int, seconds: float,
                     trace: bool) -> tuple[Tally, dict, list]:
    make_ops, check = CLI_WORKLOADS[name]
    ops = make_ops(seed)
    tally = Tally()
    if trace:
        return tally, traced_cli_workload(launcher, ops, check, seed, seconds, tally), []
    paced = Paced(launcher)
    setup = Setup(paced, [sys.executable, "-c", "import gkval.cli"])
    passes, paced_passes, peak = [], [], 0.0

    def one_pass() -> bool:
        nonlocal peak
        times, paced_times = [], []
        for op in ops:
            child, at_ref = paced.spawn([sys.executable, "-m", "gkval.cli", *op.argv], op.env)
            judge(check, op, child.rc, child.stdout, seed, tally)
            times.append(child.wall_s)
            paced_times.append(at_ref)
            peak = max(peak, child.peak_rss_mib)
        passes.append(times)
        paced_passes.append(paced_times)
        return True

    timed_loop(seconds, one_pass, setup)
    metrics = {"setup_s": statistics.median(setup.samples), "wall_s": pass_s(paced_passes),
               "peak_rss_mib": peak}
    all_ops = [t for times in passes for t in times]
    extra = [("op_p50_s", statistics.median(all_ops), "s", f"{len(all_ops)} operations"),
             ("pass_p50_s", statistics.median(map(sum, passes)), "s", f"{len(passes)} passes"),
             ("ref_p50_s", statistics.median(paced.refs), "s", f"{len(paced.refs)} references")]
    if name == "constant-term-large":
        extra += [(f"op_s.{op.key}", statistics.median(t), "s", f"median of {len(t)}")
                  for op, t in zip(ops, zip(*passes))]
    if name == "verify-all":
        extra.append(("known_failures", tally.known_failures, "count",
                      "C-type pole_ratio, documented; not a failed operation"))
    return tally, metrics, extra


def traced_cli_workload(launcher: Launcher, ops: list[Op], check, seed: int, seconds: float,
                        tally: Tally) -> dict:
    """Each operation runs twice per pass through worker.py cli, without and
    then with the LayerTrace; the per-process layer counts are summed."""
    passes, traced_passes, snapshots = [], [], []

    def one_pass() -> bool:
        times, snapshot = ([], []), Counter()
        for op in ops:
            for traced in (0, 1):
                child = launcher.spawn([sys.executable, str(HERE / "worker.py"), "cli",
                                        str(traced), *op.argv], op.env)
                times[traced].append(child.wall_s)
                try:
                    result = json.loads(child.stdout)
                except ValueError:
                    tally.attempted += 1
                    tally.fail([f"{op.key}: worker failed: {child.stderr.decode()[-500:]}"])
                    continue
                judge(check, op, result["rc"], result["stdout"].encode(), seed, tally)
                if traced:
                    snapshot.update(result["layers"])
        calls = snapshot["roots.restrict_roots.calls"]  # a ratio does not add up over processes
        snapshot["roots.restrict_roots.useful_ratio"] = (
            snapshot["roots.restrict_roots.distinct_folds"] / calls if calls else 0.0)
        passes.append(times[0])
        traced_passes.append(times[1])
        snapshots.append(snapshot)
        return True

    timed_loop(seconds, one_pass, None)
    return layer_metrics(snapshots, passes, traced_passes)


def run_weyl_sweep(launcher: Launcher, seed: int, seconds: float,
                   trace: bool) -> tuple[Tally, dict, list]:
    """One worker process runs the whole loop, a pass per request."""
    worker = [sys.executable, str(HERE / "worker.py")]
    tally, metrics = Tally(), {}
    setup = None if trace else Setup(Paced(launcher), [*worker, "setup"])
    results = []
    err = WORK / "sweep.err"
    with open(err, "wb") as stderr:
        proc = subprocess.Popen([*worker, "sweep", str(seed), str(int(trace))], cwd=ROOT,
                                env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=stderr, text=True)
    try:
        def one_pass() -> bool:
            try:
                proc.stdin.write("pass\n")
                proc.stdin.flush()
                result = json.loads(proc.stdout.readline())
            except (OSError, ValueError):
                tally.attempted += 1
                tally.fail([f"sweep worker failed: {err.read_text()[-2000:]}"])
                return False
            results.append(result)
            tally.attempted += result["attempted"]
            tally.failed += result["failed"]
            tally.problems += result["problems"]
            return True

        timed_loop(seconds, one_pass, setup)
        with contextlib.suppress(OSError):
            proc.stdin.close()
        peak = json.loads(proc.stdout.readline() or "{}").get("peak_rss_mib")
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if peak is None or not results:
        return tally, metrics, []
    if trace:
        return tally, layer_metrics([r["layers"] for r in results],
                                    [r["op_s"] for r in results],
                                    [r["traced_op_s"] for r in results]), []
    passes = [r["op_s"] for r in results]
    op_s = [t for times in passes for t in times]
    refs = [t for r in results for t in r["ref_s"]]
    metrics.update(setup_s=statistics.median(setup.samples),
                   wall_s=pass_s([r["op_rel"] for r in results]) * reference.INPROC_S,
                   peak_rss_mib=peak)
    p50, p90 = statistics.median(op_s), statistics.quantiles(op_s, n=10)[8]
    return tally, metrics, [
        *((name, value, "s", f"{len(op_s)} operations")
          for name, value in (("op_p50_s", p50), ("op_p90_s", p90))),
        ("pass_p50_s", statistics.median(map(sum, passes)), "s", f"{len(passes)} passes"),
        ("ref_p50_s", statistics.median(refs), "s", f"{len(refs)} in-process references")]


def pass_s(passes: list[list[float]]) -> float:
    """The time of one pass: for each position in a pass, the median time an
    operation there took over the run, summed over the positions.  A CLI
    workload repeats the same input at a position; weyl-sweep draws a word
    of the same length."""
    return sum(statistics.median(times) for times in zip(*passes))


def layer_metrics(snapshots: list[dict], passes: list[list[float]],
                  traced_passes: list[list[float]]) -> dict:
    """Counts of the first traced pass, self times as medians over traced
    passes, and the traced minus the untraced pass time."""
    out = {}
    for name in layers.UNITS:
        if name.endswith(".self_s"):
            out[name] = statistics.median(s[name] for s in snapshots)
        else:
            out[name] = snapshots[0][name]
    out["trace_overhead_s"] = pass_s(traced_passes) - pass_s(passes)
    return out


# ---------------------------------------------------------------------------
# reporting


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "weyl-sweep":
        tally, metrics, extra = run_weyl_sweep(launcher, seed, seconds, trace)
    else:
        tally, metrics, extra = run_cli_workload(launcher, name, seed, seconds, trace)
    units = TRACE_UNITS if trace else E2E_UNITS
    print(f"== {name}  seed {seed}  {'traced' if trace else 'untraced'}, "
          f"closed loop, 1 client, {tally.attempted} operations")
    rows = [(k, metrics[k], units[k], "") for k in units if k in metrics] + extra
    rows.append(("failed_op_share", tally.failed / max(tally.attempted, 1), "ratio",
                 f"{tally.failed}/{tally.attempted}"))
    for metric, value, unit, note in rows:
        print(f"  {metric:<44} {value:>14.6g} {unit:<6} {note}")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": tally.failed == 0 and len(metrics) == len(units),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time per workload (whole passes, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gkval" / "cli.py").is_file():
        print(f"error: no gkval sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    launcher = Launcher()
    try:
        results = {name: run_workload(launcher, name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    finally:
        launcher.close()
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
