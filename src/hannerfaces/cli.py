"""Command-line interface.

One executable, one subcommand per pipeline, uniform output discipline:
CSV or JSON on stdout, big integers serialized as decimal strings, and
exit codes 0 (success), 1 (internal error), 2 (verification or tolerance
failure), 3 (usage or precondition error).  Identical invocations produce
byte-identical output.  Tables stream out as their rows are formatted, after
every check has passed, so a run that fails prints nothing on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice, repeat
from typing import Iterable, Sequence

from . import geometry
from ._kernels import _EXACT
from .asymptotics import check_fit_tol, fit_indices, flm_report, scan
from .errors import UsageError, VerificationError
from .phimap import compose_window, tfree_and_top, word_from_string
from .polys import eval_at_one
from .recursion import Engine, log2_face_number, run
from .schedule import DensityParam, is_product_step, window_profile
from .trees import DEFAULT_BUDGET, check_windows, histogram_leaves, lower_bound_certificate, tree_sum_check

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VERIFICATION = 2
EXIT_USAGE = 3
_ROWS_PER_WRITE = 4096


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _fmt_float(x: float) -> str:
    return format(x, ".17g")


def _parse_density(args) -> DensityParam:
    if getattr(args, "a", None) and getattr(args, "a_real", None):
        raise UsageError("give either --a or --a-real, not both")
    if getattr(args, "a", None):
        try:
            p, q = args.a.split("/")
            p, q = int(p), int(q)
        except ValueError as exc:
            raise UsageError(f"--a must be P/Q, got {args.a!r}") from exc
        return DensityParam.rational(p, q)
    if getattr(args, "a_real", None):
        try:
            value, bits = args.a_real.rsplit(":", 1)
            bits = int(bits)
        except ValueError as exc:
            raise UsageError(f"--a-real must be VALUE:BITS, got {args.a_real!r}") from exc
        return DensityParam.real(value, bits)
    raise UsageError("a density parameter is required (--a P/Q or --a-real V:BITS)")


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag} must be NUM/DEN, got {text!r}") from exc


def _emit_rows(args, header: list[str], rows: Iterable[Sequence[str]], path=None, head=(), key=None):
    """Write a table, one str cell per header name, to ``path``, else stdout, as CSV
    or as JSON byte for byte what ``json.dumps([dict(zip(header, row)) ...], indent=2)`` gives.
    The (name, value) pairs of ``head`` lead it: a "name: value" line each in
    CSV, and in JSON the object ``{**dict(head), key: [...]}`` holds the rows.
    Rows are formatted as they are written, ``_ROWS_PER_WRITE`` to a write, so
    they must come from results already computed.
    """
    if getattr(args, "format", "csv") == "json":
        enc = json.encoder.encode_basestring_ascii
        pad = "  " if head else ""  # the rows nest one level deeper under a head
        fields = ",\n".join(f"{pad}    {enc(h).replace('%', '%%')}: %s" for h in header)
        record = f"{pad}  {{\n{fields}\n{pad}  }}" if header else f"{pad}  {{}}"
        texts = (record % tuple(map(enc, row)) for row in rows)
        members = "".join(f"  {enc(k)}: {enc(v)},\n" for k, v in head)
        start = f"{{\n{members}  {enc(key)}: [" if head else "["
        sep, empty, close, end = ",\n", "]", f"\n{pad}]", "\n}\n" if head else "\n"
    else:
        texts = map(",".join, rows)
        start = "".join(f"{k}: {v}\n" for k, v in head) + ",".join(header)
        sep, empty, close, end = "\n", "", "", "\n"
    try:
        out = open(path, "w") if path else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc
    with out as fh:
        fh.write(start)
        lead, tail = "\n", empty  # the first row is led by a newline, the others by sep
        for chunk in iter(lambda: list(islice(texts, _ROWS_PER_WRITE)), []):
            fh.write(lead + sep.join(chunk))
            lead, tail = sep, close
        fh.write(tail + end)


def _json_text(value, pad: str = "") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, ``pad`` deep: dicts with
    str keys, lists, tuples, str, int, float (NaN and infinities included), bool
    and None.  Strings go through the same C escaper as ``_emit_rows``, where
    ``indent`` would send ``json.dumps`` down its pure-Python encoder."""
    enc = json.encoder.encode_basestring_ascii
    if isinstance(value, str):
        return enc(value)
    if isinstance(value, (dict, list, tuple)):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = pad + "  "
        if isinstance(value, dict):
            opener, closer = "{", "}"
            items = (f"{enc(k)}: {_json_text(v, inner)}" for k, v in value.items())
        else:  # str cells, the bulk of a long list, are encoded without a call each
            opener, closer = "[", "]"
            items = (enc(v) if type(v) is str else _json_text(v, inner) for v in value)
        return f"{opener}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{closer}"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv_cell(text: str) -> str:
    """``text`` quoted as the csv module's minimal quoting quotes a field."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit_object(args, obj: dict):
    """Write ``obj`` as JSON, or as CSV rows of (key, value) with nested values in
    compact JSON, quoted so that every row reads back as two fields."""
    if getattr(args, "format", "json") == "csv":
        cells = [[k, json.dumps(v) if isinstance(v, (dict, list)) else str(v)] for k, v in obj.items()]
        _emit_rows(args, ["key", "value"], [[_csv_cell(k), _csv_cell(v)] for k, v in cells])
    else:
        sys.stdout.write(_json_text(obj) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_schedule(args) -> int:
    a = _parse_density(args)
    if args.steps < 1:
        raise UsageError("--steps must be >= 1")
    kinds = [is_product_step(n, a).value for n in range(args.steps)]  # every step decided first
    _emit_rows(args, ["n", "kind"], ([str(n), kind] for n, kind in enumerate(kinds)))
    return EXIT_OK


def _cmd_fvector(args) -> int:
    a = _parse_density(args)
    engine = Engine.parse(args.engine)
    poly = run(a, args.n, args.kmax, engine).poly
    if engine.is_log:
        texts = map(_fmt_float, map(float, poly.log2_coeffs))
    else:  # an integral Decimal's str() is its digits, in linear time; unstored slots are 0
        texts = chain(map(str, poly.decimals), repeat("0", poly.kmax + 1 - len(poly.decimals)))
    _emit_rows(args, ["k", "coefficient"], ([str(k), text] for k, text in enumerate(texts)))
    return EXIT_OK


def _cmd_phi(args) -> int:
    if args.word is not None:
        word = word_from_string(args.word)
        if word and (args.a, args.a_real, args.Q, args.m) != (None,) * 4:  # "" is refused below
            raise UsageError("give either --word or --a/--a-real/--Q/--m, not both")
    else:
        a = _parse_density(args)
        if args.Q is None or args.m is None:
            raise UsageError("phi needs --word or all of --a/--Q/--m")
        word = window_profile(a, args.Q, args.m).word
    phi = compose_window(word)
    A, p, B, lam = tfree_and_top(phi)
    coeff_tables = {str(k): ["0"] * lo + [str(c) for c in coeffs] for k, (lo, coeffs) in phi.terms.items()}
    _emit_object(
        args,
        {
            "word": phi.word_str,
            "Q": phi.Q,
            "p": p,
            "K": phi.support,
            "A": str(A),
            "B": str(B),
            "lambda": lam,
            "C": coeff_tables,
        },
    )
    return EXIT_OK


def _cmd_trees(args) -> int:
    a = _parse_density(args)
    result = tree_sum_check(a, args.Q, args.m, args.kmax, args.budget)
    windows = [window_profile(a, args.Q, j) for j in range(args.m)]
    # qcount is defined against one window map, so only for a constant stack
    typical = 2 ** windows[0].p if len({win.word for win in windows}) == 1 else None
    cells = {}  # per class: its cells after the tree index, formatted once
    for hist, w in result.tree_classes:
        if id(hist) not in cells:
            qcount = "" if typical is None else sum(c for (_, d), c in hist.items() if d != typical)
            values = (histogram_leaves(hist), sum(hist.values()), eval_at_one(w), qcount)
            cells[id(hist)] = tuple(str(v) for v in values)
    rows = ((str(i), *cells[id(h)]) for i, (h, _) in enumerate(result.tree_classes))
    verdict = [("verdict", f"exact-match over {result.n_trees} trees")]
    _emit_rows(args, ["tree", "leaves", "internal", "weight_at_1", "qcount"], rows, head=verdict, key="trees")
    return EXIT_OK


def _cmd_lower_bound(args) -> int:
    a = _parse_density(args)
    check_windows(args.m)  # before the engine run at n = Q*m, whose refusal would name n
    engine_log2 = log2_face_number(a, args.Q * args.m, args.k, Engine.for_kmax(args.k))
    cert = lower_bound_certificate(a, args.Q, args.m, args.k)
    ok = cert.bound_log2 <= engine_log2
    _emit_object(
        args,
        {
            "h": cert.h,
            "jstar": cert.jstar,
            "jweight": cert.jweight,
            "L": cert.leaves,
            "qcount": cert.qcount,
            "bound_log2": cert.bound_log2,
            "engine_log2": _fmt_float(engine_log2),
            "L_gt_2k": cert.leaves_exceed_2k,
            "certified_chain": cert.certified,
            "bound_holds": ok,
        },
    )
    return EXIT_OK if ok else EXIT_VERIFICATION


def _scan(args, fit=False):
    """Density, delta and the scan rows at n = 0..--nmax of asymptotics and
    flm-report; with ``fit``, a scan too short to fit is refused before it runs."""
    a = _parse_density(args)
    delta = _parse_fraction(args.delta, "--delta")
    engine = Engine.parse(args.engine)
    if args.nmax < 0:
        raise UsageError(f"step count must be >= 0, got {args.nmax}")
    ns = range(args.nmax + 1)
    if fit:  # the row at n = 0 reads log2 a_{0,1} = 0, which a fit drops
        fit_indices(ns[1:], a)
    return a, delta, scan(a, delta, ns, engine)


def _cmd_asymptotics(args) -> int:
    if args.csv and args.format == "json":  # before the scan, which may take seconds
        raise UsageError("--csv writes CSV; give --format csv or leave --csv out")
    _, _, rows = _scan(args)

    def cells():
        # d = 2**n prints from a Decimal doubled row by row (rows come in rising n):
        # str(int) is quadratic in the digits and refuses past int_max_str_digits.
        d, at = Decimal(1), 0
        for r in rows:
            while at < r.n:
                d, at = _EXACT.add(d, d), at + 1
            yield [*map(str, (r.n, d, r.k, r.Q, r.m, r.p)), _fmt_float(r.log2_coeff), _fmt_float(r.rho)]

    _emit_rows(args, ["n", "d", "k", "Q", "m", "p", "log2_coeff", "rho"], cells(), args.csv)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    report = geometry.oracle_report(_parse_density(args), args.n, args.full_lattice)
    _emit_object(args, report)
    return EXIT_VERIFICATION if report["crosscheck_failures"] else EXIT_OK


def _cmd_flm_report(args) -> int:
    check_fit_tol(args.fit_tol, "--fit-tol")  # before the scan, which may take seconds
    a, delta, rows = _scan(args, fit=True)
    report = flm_report(a, delta, rows, fit_tol=args.fit_tol)
    _emit_object(args, report)
    return EXIT_OK if report["fit_ok"] else EXIT_VERIFICATION


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest  # the check table loads only for this subcommand

    return EXIT_OK if run_selftest(sys.stdout) else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# parser assembly and entry point
# ---------------------------------------------------------------------------

def _add_density_flags(sub):
    sub.add_argument("--a", help="rational density parameter P/Q")
    sub.add_argument("--a-real", dest="a_real", help="high-precision density VALUE:BITS")


def _full_lattice_help() -> str:
    """``--full-lattice``'s help, read from the face guard: the largest n whose
    3^(2^n) faces it admits, and the guard itself (as 10^e if a power of ten)."""
    guard = geometry._LATTICE_FACE_GUARD
    n = 0
    while 3 ** 2 ** (n + 1) <= guard:
        n += 1
    e = len(str(guard)) - 1
    size = f"10^{e}" if guard == 10**e else str(guard)
    return (
        f"build the face lattice at any n; it is always built at n <= {n}, and at n >= {n + 1} "
        f"its 3^(2^n) faces exceed the {size}-face guard, so the run exits 3"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="hannerfaces", description=__doc__, allow_abbrev=False)
    parser.add_argument("--config", help="key=value file of default flags")
    subs = parser.add_subparsers(dest="command", required=True)
    engines = [e.value for e in Engine]

    s = subs.add_parser("schedule", help="emit the product/hull step word")
    _add_density_flags(s)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=_cmd_schedule)

    s = subs.add_parser("fvector", help="coefficient vector of a recursion engine")
    _add_density_flags(s)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--kmax", type=int, required=True)
    s.add_argument("--engine", choices=engines, default=Engine.PAPER_EXACT.value)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=_cmd_fvector)

    s = subs.add_parser("phi", help="exact window-map expansion")
    _add_density_flags(s)
    s.add_argument("--Q", type=int)
    s.add_argument("--m", type=int)
    s.add_argument("--word", help="explicit word over S/R, innermost first")
    s.add_argument("--format", choices=("csv", "json"), default="json")
    s.set_defaults(func=_cmd_phi)

    s = subs.add_parser("trees", help="tree-sum identity check with per-tree stats")
    _add_density_flags(s)
    s.add_argument("--Q", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--kmax", type=int, required=True)
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=_cmd_trees)

    s = subs.add_parser("lower-bound", help="explicit-tree lower bound vs engine value")
    _add_density_flags(s)
    s.add_argument("--Q", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--format", choices=("csv", "json"), default="json")
    s.set_defaults(func=_cmd_lower_bound)

    s = subs.add_parser("asymptotics", help="scan log2 face numbers at k = floor(d^delta)")
    _add_density_flags(s)
    s.add_argument("--delta", required=True, help="NUM/DEN in (0,1)")
    s.add_argument("--nmax", type=int, required=True)
    s.add_argument("--engine", choices=engines, default=Engine.PAPER_EXACT.value)
    s.add_argument("--csv", help="write CSV to this path instead of stdout")
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=_cmd_asymptotics)

    s = subs.add_parser("oracle", help="exact small-dimension geometry oracle")
    _add_density_flags(s)
    s.add_argument("--n", type=int, required=True)
    s.add_argument(
        "--full-lattice",
        action="store_true",
        help=_full_lattice_help(),
    )
    s.add_argument("--format", choices=("csv", "json"), default="json")
    s.set_defaults(func=_cmd_oracle)

    s = subs.add_parser("flm-report", help="exponent triple, budget, and measured fit")
    _add_density_flags(s)
    s.add_argument("--delta", required=True, help="NUM/DEN in (0,1)")
    s.add_argument("--nmax", type=int, required=True)
    s.add_argument("--engine", choices=engines, default=Engine.PAPER_LOG.value)
    s.add_argument("--fit-tol", dest="fit_tol", type=float, default=0.1)
    s.add_argument("--format", choices=("csv", "json"), default="json")
    s.set_defaults(func=_cmd_flm_report)

    s = subs.add_parser("selftest", help="run the acceptance criteria and invariant checks (about 2 s)")
    s.set_defaults(func=_cmd_selftest)

    return parser


def _load_config(path: str) -> list[str]:
    """key=value lines become --key=value flags, applied before the real
    argv so the command line wins."""
    flags = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"config line is not key=value: {line!r}")
                key, value = line.split("=", 1)
                flags.append(f"--{key.strip()}={value.strip()}")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # --config PATH or --config=PATH leads the argv; its values become subcommand defaults
        if argv and argv[0].startswith("--config="):
            argv[:1] = argv[0].split("=", 1)
        if argv and argv[0] == "--config":
            if len(argv) < 3:
                raise UsageError("usage: --config PATH SUBCOMMAND [flags]")
            config_flags = _load_config(argv[1])
            argv = argv[2:3] + config_flags + argv[3:]
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except VerificationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFICATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
