"""Command-line interface.

Subcommands:

* classify       -- relative root system, length classes, degree table
* constant-term  -- symbolic factorization over the inversion set
* poles          -- positive-pole profile per relative root
* tables         -- classification tables for the standard families
* verify-local   -- p-adic shell-integral oracles
* verify-arch    -- archimedean constancy and duplication oracles
* verify-all     -- every check, including table reproduction and Weyl
                    invariants (randomized words seeded by GK_SEED)

Exit codes: 0 success, 1 verification failure, 2 input or schema error,
3 any other exception a command raises, an internal invariant breach
included, reported in one stderr line as
``internal error: <type>: <first line of its message>``.  A reader that
closes stdout early, as ``| head`` does, only cuts the output short: no
stderr line, and the exit code is the command's own, 0 or 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .characters import (
    FUNCTION_MODE,
    NUMBER_MODE,
    CharacterError,
    RationalComplex,
    UnramifiedCharacter,
)
from .constant_term import (
    component_pole_ratio,
    constant_term,
    pole_profile,
)
from .lfactors import PLACE_FINITE
from .roots import (
    FAMILIES,
    GroupDatum,
    RootSystemError,
    cartan_matrix,
    derived_table,
    proposition_table,
    restrict_roots,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_SCHEMA = 2
EXIT_INTERNAL = 3


class SchemaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input parsing


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list, got {value!r}")
    return value


# Spec integers, and the numerators and denominators of spec and --s-grid
# rationals, have at most MAX_DIGITS digits: then every pairing, degree and
# local argument prints within CPython's 4,300-digit limit on int-to-str
# conversion.
MAX_DIGITS = 100


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    if abs(value) >= 10**MAX_DIGITS:
        raise SchemaError(f"{what} has more than {MAX_DIGITS} digits")
    return value


def _decimal(text: str) -> int:
    """An optional minus sign and ASCII digits, as GK_SEED, --q, --depth and
    --res-degree are written; int() alone would also take underscores,
    padding and non-ASCII digits."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"must be a decimal integer, got {text!r}")


def _plain(text: str) -> str:
    """``text`` if it is ASCII with no underscore and no whitespace, the rule
    for every rational and float read from text; ValueError otherwise.
    Fraction and float alone also take padding, non-ASCII digits and
    underscores (Fraction from Python 3.11 on)."""
    if text.isascii() and "_" not in text and text.split() == [text]:
        return text
    raise ValueError("underscore, whitespace or non-ASCII character")


def _float(text: str) -> float:
    """A float written as _plain text, as --tol is."""
    try:
        return float(_plain(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None


def _unread(obj: dict, where: str) -> None:
    """Keys are popped as they are read: one left over is not read, and a
    misspelt key would otherwise leave its value at the default."""
    for key in obj:
        raise SchemaError(f"unknown key {key!r} in {where}")


def _int_list(value, what: str) -> list[int]:
    return [_int(x, f"{what} entry") for x in _list(value, what)]


def _rational(value, what: str) -> Fraction:
    """A JSON integer, or a string holding an integer, a fraction p/q or a
    decimal with an optional exponent, as _plain text.  The exponent is
    bounded before Fraction expands it: for "1e99999999" it would build an
    integer of 10^8 digits."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{what} must be an integer or a string, got {value!r}")
    text = str(value)
    _, e, exponent = text.lower().partition("e")
    try:
        if e and abs(int(exponent)) > MAX_DIGITS:
            raise ValueError("exponent out of range")
        r = Fraction(_plain(text))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"bad {what} {value!r}") from None
    if max(abs(r.numerator), r.denominator) >= 10**MAX_DIGITS:
        raise SchemaError(f"{what} {value!r} has more than {MAX_DIGITS} digits")
    return r


def _parse_diagram(spec) -> list[list[int]]:
    if isinstance(spec, str):
        if len(spec) < 2 or not spec[0].isalpha():
            raise SchemaError(f"bad diagram string {spec!r}")
        family, rank = spec[0].upper(), spec[1:]
        # isdecimal refuses the superscripts that isdigit takes and int()
        # does not; a rank of four digits is over MAX_NODES already
        if not rank.isdecimal() or len(rank) > 3:
            raise SchemaError(f"bad diagram string {spec!r}")
        return cartan_matrix(family, int(rank))
    if isinstance(spec, dict) and "cartan" in spec:
        rows = _list(spec.pop("cartan"), "cartan")
        _unread(spec, "diagram")
        return [_int_list(row, "cartan row") for row in rows]
    raise SchemaError("diagram must be a type string or {'cartan': [[...]]}")


def _parse_rational_pair(entry) -> RationalComplex:
    what = "chi_exponent entry"
    if isinstance(entry, list) and len(entry) == 2:
        return RationalComplex(_rational(entry[0], what), _rational(entry[1], what))
    return RationalComplex(_rational(entry, what), Fraction(0))


def load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    # ValueError: bad JSON or UTF-8, or an integer of over 4,300 digits;
    # RecursionError: nesting deeper than the parser's stack
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot read spec file: {exc}") from exc
    if not isinstance(raw, dict) or "diagram" not in raw:
        raise SchemaError("spec file must be an object with a 'diagram' key")
    try:
        datum = _parse_datum(raw)
    except RootSystemError as exc:
        raise SchemaError(str(exc)) from exc
    # outside the try: a validated datum always folds, so a RootSystemError
    # from the fold is an invariant breach (exit 3), not bad input
    system = restrict_roots(datum)
    try:
        return _build_spec(raw, datum, system)
    except (RootSystemError, CharacterError) as exc:
        raise SchemaError(str(exc)) from exc


def _parse_datum(raw: dict) -> GroupDatum:
    cartan = _parse_diagram(raw.pop("diagram"))
    n = len(cartan)
    perm = _int_list(raw.pop("automorphism", list(range(n))), "automorphism")
    order = _int(raw.pop("automorphism_order", 1), "automorphism_order")
    dprime = _int(raw.pop("res_degree", 1), "res_degree")
    label = raw.pop("label", "")
    if not isinstance(label, str):
        raise SchemaError(f"label must be a string, got {type(label).__name__}")
    try:
        label.encode()
    except UnicodeEncodeError:  # a lone surrogate, which JSON can escape
        raise SchemaError("label must be valid Unicode text") from None
    return GroupDatum(cartan, perm, order, dprime, label)


def _build_spec(raw: dict, datum: GroupDatum, system) -> dict:
    mode_raw = raw.pop("mode", "number")
    if mode_raw == "number":
        mode, q = NUMBER_MODE, None
    elif isinstance(mode_raw, dict) and "function" in mode_raw:
        mode, q = FUNCTION_MODE, _int(mode_raw.pop("function"), "function-field q")
        _unread(mode_raw, "mode")
    else:
        raise SchemaError(f"bad mode {mode_raw!r}")

    exps = raw.pop("chi_exponent", None)
    if exps is None:
        exponents = (RationalComplex(),) * system.rank
    else:
        if len(_list(exps, "chi_exponent")) != system.rank:
            raise SchemaError("chi_exponent has wrong rank")
        exponents = tuple(_parse_rational_pair(e) for e in exps)
    chi = UnramifiedCharacter(exponents, mode, q)

    direction_raw = raw.pop("lambda_direction", None)
    if direction_raw is None:
        direction = system.principal_ray()
    else:
        if len(_list(direction_raw, "lambda_direction")) != system.rank:
            raise SchemaError("lambda_direction has wrong rank")
        direction = tuple(_rational(e, "lambda_direction entry") for e in direction_raw)

    word_raw = raw.pop("weyl_word", None)
    if word_raw is None:
        w = system.longest_element()
    else:
        w = system.normalize(_int_list(word_raw, "weyl_word"))

    _unread(raw, "spec file")
    return {"datum": datum, "system": system, "chi": chi,
            "direction": direction, "weyl": w}


# ---------------------------------------------------------------------------
# output helpers


# One atom of MeromorphicProduct.to_json as json.dumps(..., sort_keys=True,
# indent=2) writes it at depth 0, less the line of q; a rational's str() needs
# no escaping, and every atom has the one place kind.
_ATOM = ('{\n  "a": "%s",\n  "b": "%s",\n  "character": {\n    "exponent": [\n      "%s",\n'
         '      "%s"\n    ],%s\n    "twist": %s\n  },\n  "exponent": %d,\n  "field": {\n'
         '    "degree": %d,\n    "label": %s,\n    "place_kind": ' + _encode_str(PLACE_FINITE)
         + '\n  },\n  "kind": %s\n}')


def _product_pieces(product, out: list, pad: str) -> None:
    """Append the text of json.dumps(product.to_json(), sort_keys=True,
    indent=2) at the depth of pad, one formatted string per atom."""
    inner = pad + "  "
    atom_text, sep = _ATOM.replace("\n", inner), "[" + inner
    for atom, n in product:
        eta = atom.character
        q = "" if eta.q is None else f'{inner}    "q": {eta.q},'
        out.append(sep + atom_text % (
            atom.arg.a, atom.arg.b, eta.exponent.re, eta.exponent.im, q,
            "true" if eta.quad_twist else "false", n, eta.degree,
            _encode_str(eta.field_label), _encode_str(atom.kind)))
        sep = "," + inner
    out.append(pad + "]" if len(product) else "[]")


def _report_json(report, variable: str) -> str:
    """The constant-term JSON, as json.dumps(..., sort_keys=True, indent=2)
    writes it, straight from the report's records: no dict is built."""
    out = ['{\n  "factors": ']
    sep = "["
    for f in report.factors:
        root = f.root
        out.append(f'{sep}\n    {{\n      "d_alpha": {root.d_alpha},\n      "factor": ')
        _product_pieces(f.product, out, "\n      ")
        coords = ",\n        ".join(map(int.__repr__, root.coords))  # never empty
        out.append(f',\n      "length_class": {_encode_str(root.length_class)},'
                   f'\n      "local_argument": {_encode_str(f.local_argument.render())},'
                   f'\n      "pairing": {_encode_str(f.pairing.render())},'
                   f'\n      "rank_one_type": {_encode_str(root.rank_one_type)},'
                   f'\n      "root": [\n        {coords}\n      ]\n    }}')
        sep = ","
    out.append("\n  ]" if report.factors else "[]")
    out.append(f',\n  "length": {len(report.factors)},\n  "product": ')
    _product_pieces(report.product, out, "\n  ")
    # json.dumps refuses an entry that json cannot serialize, as json would
    word = ",\n    ".join(map(json.dumps, report.weyl.word))
    out.append(f',\n  "variable_convention": {_encode_str(variable)},\n  "weyl_word": ')
    out.append(f"[\n    {word}\n  ]\n}}" if word else "[]\n}")
    return "".join(out)  # the pieces are freed before print encodes the text


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _emit(payload, fmt: str, text_lines=None, to_json=_json) -> None:
    """Print the payload as the JSON to_json writes, json.dumps(payload,
    sort_keys=True, indent=2) unless a command writes its own, or as the
    lines that text_lines yields.  The text is built whole before anything is
    printed, so a failed run prints nothing.  A closed stdout ends the output
    silently, and the command returns its own exit code."""
    if fmt == "json":
        text = to_json(payload)
    else:  # every command's text has at least one line
        text = "\n".join(text_lines(payload))
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:  # as the signal module's docs advise for SIGPIPE
        # the flush at exit then writes what is left to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# commands


def cmd_classify(args) -> int:
    ctx = load_spec(args.input)
    system = ctx["system"]
    payload = {
        "label": ctx["datum"].label,
        "relative_rank": system.rank,
        "components": [
            {"type": t, "nodes": list(nodes)} for t, nodes in system.components
        ],
        "has_divisible_roots": system.has_divisible,
        "degree_table": derived_table(system),
        "simple_roots": [
            {
                "index": r.index,
                "coords": list(r.coords),
                "length_class": r.length_class,
                "d_alpha": r.d_alpha,
                "rank_one_type": r.rank_one_type,
            }
            for r in system.simple_roots
        ],
        "positive_root_count": len(system.positive_roots),
    }

    def lines(p):
        yield f"label: {p['label']}"
        yield f"relative rank: {p['relative_rank']}"
        for c in p["components"]:
            yield f"component {c['nodes']}: type {c['type']}"
        yield f"degree table: {p['degree_table']}"
        for r in p["simple_roots"]:
            yield (
                f"  node {r['index']}: {r['length_class']}, "
                f"d_alpha={r['d_alpha']}, {r['rank_one_type']}"
            )

    _emit(payload, args.output_format, lines)
    return EXIT_OK


def cmd_constant_term(args) -> int:
    ctx = load_spec(args.input)
    report = constant_term(
        ctx["system"], ctx["chi"], ctx["direction"], ctx["weyl"]
    )

    def lines(r):
        yield f"weyl word: {list(r.weyl.word)} (length {len(r.factors)})"
        for f in r.factors:
            root = f.root
            arg = f.pairing if args.variable == "global" else f.local_argument
            yield (f"  root {list(root.coords)} [{root.length_class}, d={root.d_alpha}, "
                   f"{root.rank_one_type}]: argument {arg.render()}")
        for atom, n in r.product:
            eta = atom.character
            q = "" if eta.q is None else f"  q={eta.q}"
            yield (f"  {atom.kind}_{eta.field_label}({atom.arg.render()})^{n}"
                   f"  degree={eta.degree}  exponent=({eta.exponent.re}, {eta.exponent.im})"
                   f"  twist={eta.quad_twist}{q}")

    _emit(report, args.output_format, lines, lambda r: _report_json(r, args.variable))
    return EXIT_OK


def cmd_poles(args) -> int:
    ctx = load_spec(args.input)
    variable = "ray" if args.variable == "global" else "pairing"
    entries = pole_profile(
        ctx["system"],
        ctx["chi"],
        direction=ctx["direction"],
        w=ctx["weyl"],
        variable=variable,
        include_conditional=True,
    )
    payload = {
        "variable": args.variable,
        "poles": [e.to_json() for e in entries],
        "ratios": [
            {
                "component": i,
                **{
                    k: (str(v) if isinstance(v, Fraction) else
                        {kk: str(vv) for kk, vv in v.items()})
                    for k, v in component_pole_ratio(ctx["system"], i).items()
                },
            }
            for i in range(len(ctx["system"].components))
        ],
    }

    def lines(p):
        for e in p["poles"]:
            tag = " (conditional)" if e["conditional"] else ""
            yield (
                f"root {e['root']} [{e['length_class']}]: pole at "
                f"{e['location']}, order {e['order']}{tag}"
            )
        for r in p["ratios"]:
            yield f"component {r['component']}: {r}"

    _emit(payload, args.output_format, lines)
    return EXIT_OK


def cmd_tables(args) -> int:
    dprime = args.res_degree
    tables = {family: proposition_table(family, d_prime=dprime) for family in FAMILIES}

    def lines(p):
        yield f"d_prime: {p['d_prime']}"
        for family, row in p["tables"].items():
            yield f"{family}: {row}"

    _emit({"d_prime": dprime, "tables": tables}, args.output_format, lines)
    return EXIT_OK


def _finish_verify(checks: list[dict], fmt: str) -> int:
    failed = sum(not c["pass"] for c in checks)
    payload = {"checks": checks, "total": len(checks), "failed": failed,
               "pass": not failed}

    def lines(p):
        for c in p["checks"]:
            mark = "ok" if c["pass"] else "FAIL"
            yield f"[{mark}] {c['name']} {c.get('inputs', {})}"
        yield f"{p['total'] - p['failed']}/{p['total']} checks passed"

    _emit(payload, fmt, lines)
    return EXIT_OK if not failed else EXIT_VERIFY


# The verify-* commands import their suites, and with them the oracles, on
# first use: the other commands never need them.


def cmd_verify_local(args) -> int:
    from .checks import local_checks

    return _finish_verify(local_checks(args.places, args.s_grid, args.cfg),
                          args.output_format)


def cmd_verify_arch(args) -> int:
    from .checks import arch_checks

    return _finish_verify(arch_checks(), args.output_format)


def cmd_verify_all(args) -> int:
    try:
        seed = _decimal(os.environ.get("GK_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise SchemaError(f"GK_SEED {exc}") from None
    from .checks import arch_checks, local_checks, ratio_checks, table_checks, weyl_checks

    checks = (
        local_checks(args.places, args.s_grid, args.cfg)
        + arch_checks()
        + table_checks()
        + ratio_checks()
        + weyl_checks(seed)
    )
    return _finish_verify(checks, args.output_format)


# ---------------------------------------------------------------------------
# entry point


# --s-grid bounds.  Near s = 0, q^-s rounds to 1 and the closed forms divide
# by zero; past about 1e308, s has no float.  Inside [S_MIN, S_MAX] neither
# happens, and each shell sum converges or reports that it does not.
S_MIN, S_MAX = Fraction(1, 1000), Fraction(1000)


def _s_value(text: str) -> Fraction:
    s = _rational(text, "--s-grid value")
    if not S_MIN <= s <= S_MAX:
        raise SchemaError(f"--s-grid values must lie in [{S_MIN}, {S_MAX}]")
    return s


def _check_args(args) -> None:
    """Parse --s-grid, and build the oracle configuration and places once,
    rejecting options outside their domain.  Only the commands with oracle
    options load the oracles."""
    if _int(getattr(args, "res_degree", 1), "--res-degree") < 1:
        raise SchemaError("--res-degree must be positive")
    if not hasattr(args, "s_grid"):
        return
    from .oracles import LocalPlace, OracleConfig, OracleError

    args.s_grid = [_s_value(p) for p in args.s_grid.split(",") if p]
    if not args.s_grid:
        raise SchemaError("--s-grid needs at least one value")
    # OracleConfig holds the defaults of the options that were not given
    given = {"depth": args.depth, "tolerance": args.tol}
    try:
        args.cfg = OracleConfig(**{k: v for k, v in given.items() if v is not None})
        args.places = [LocalPlace(q) for q in args.q]
    except OracleError as exc:
        raise SchemaError(f"bad oracle option: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one stderr line with exit code 2, like every
    other input error; the subcommand parsers inherit the class."""

    def error(self, message: str):
        self.exit(EXIT_SCHEMA, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gkval",
        description="Constant-term factorizations over relative root systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input: bool) -> None:
        if needs_input:
            p.add_argument("--input", required=True, help="group-spec JSON file")
        p.add_argument("--output-format", choices=("text", "json"),
                       default="text")

    def oracle_opts(p) -> None:
        p.add_argument("--depth", type=_decimal)  # default: OracleConfig's
        p.add_argument("--tol", type=_float)
        p.add_argument("--q", type=_decimal, nargs="+", default=[2, 3, 5])
        p.add_argument("--s-grid", type=str, default="1,3/2,2,3")

    p = sub.add_parser("classify", help="relative root system report")
    common(p, True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("constant-term", help="symbolic factorization")
    common(p, True)
    p.add_argument("--variable", choices=("global", "local"), default="global")
    p.set_defaults(func=cmd_constant_term)

    p = sub.add_parser("poles", help="positive-pole profile")
    common(p, True)
    p.add_argument("--variable", choices=("global", "local"), default="local")
    p.set_defaults(func=cmd_poles)

    p = sub.add_parser("tables", help="classification degree tables")
    common(p, False)
    p.add_argument("--res-degree", type=_decimal, default=1)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify-local", help="p-adic oracles")
    common(p, False)
    oracle_opts(p)
    p.set_defaults(func=cmd_verify_local)

    p = sub.add_parser("verify-arch", help="archimedean oracles")
    common(p, False)
    p.set_defaults(func=cmd_verify_arch)

    p = sub.add_parser("verify-all", help="every verification suite")
    common(p, False)
    oracle_opts(p)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except Exception as exc:  # a fault of the program, reported in one line
        first = next(iter(str(exc).splitlines()), "")
        print(f"internal error: {type(exc).__name__}: {first}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
