"""Command-line interface.

One executable, one subcommand per pipeline, uniform output discipline:
CSV or JSON on stdout, big integers serialized as decimal strings, and
exit codes 0 (success), 1 (internal error), 2 (verification or tolerance
failure), 3 (usage or precondition error).  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .asymptotics import bound_envelope, fit_exponent, flm_report, scan
from .errors import UsageError, VerificationError
from .geometry import build_polytope, face_lattice, radii, radii_recursion
from .phimap import compose_window, tfree_and_top, window_phis, word_from_string
from .polys import eval_at_one
from .recursion import Engine, face_numbers, log2_face_number, proper_f_vector
from .schedule import DensityParam, is_product_step, window_profile
from .selftest import run_selftest
from .trees import (
    atypical_count_and_leaf_bound,
    check_tree_sum,
    leaf_count,
    internal_count,
    lower_bound_certificate,
    weighted_trees,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VERIFICATION = 2
EXIT_USAGE = 3


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


def _emit_rows(args, header: list[str], rows: list[list[str]], path: str | None = None):
    if getattr(args, "format", "csv") == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_object(args, obj: dict):
    if getattr(args, "format", "json") == "csv":
        rows = [[k, json.dumps(v) if isinstance(v, (dict, list)) else str(v)] for k, v in obj.items()]
        _emit_rows(args, ["key", "value"], rows)
    else:
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_schedule(args) -> int:
    a = _parse_density(args)
    if args.steps < 1:
        raise UsageError("--steps must be >= 1")
    rows = [[str(n), is_product_step(n, a).value] for n in range(args.steps)]
    _emit_rows(args, ["n", "kind"], rows)
    return EXIT_OK


_FVECTOR_KMAX_CAP = 65536


def _cmd_fvector(args) -> int:
    a = _parse_density(args)
    engine = Engine.parse(args.engine)
    if args.kmax > _FVECTOR_KMAX_CAP:
        raise UsageError(
            f"--kmax {args.kmax} exceeds the desk-scale cap {_FVECTOR_KMAX_CAP}"
        )
    vec = face_numbers(a, args.n, args.kmax, engine)
    if engine.is_log:
        rows = [[str(k), _fmt_float(v)] for k, v in enumerate(vec)]
    else:
        rows = [[str(k), str(v)] for k, v in enumerate(vec)]
    _emit_rows(args, ["k", "coefficient"], rows)
    return EXIT_OK


def _cmd_phi(args) -> int:
    if args.word:
        word = word_from_string(args.word)
    else:
        a = _parse_density(args)
        if args.Q is None or args.m is None:
            raise UsageError("phi needs --word or all of --a/--Q/--m")
        word = window_profile(a, args.Q, args.m).word
    phi = compose_window(word)
    A, p, B, lam = tfree_and_top(phi)
    coeff_tables = {
        str(k): [str(c) for c in phi.terms[k].coeffs[: phi.terms[k].degree() + 1]]
        for k in phi.support
    }
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
    phis = window_phis(a, args.Q, args.m)
    # qcount is defined against one window map, so only for a constant stack
    qcount_phi = phis[0] if len({phi.word for phi in phis}) == 1 else None
    rows = []

    def recorded(pairs):
        for tree, w in pairs:
            qcount = "" if qcount_phi is None else atypical_count_and_leaf_bound(tree, qcount_phi).qcount
            values = (len(rows), leaf_count(tree), internal_count(tree), eval_at_one(w), qcount)
            rows.append([str(v) for v in values])
            yield tree, w

    pairs = recorded(weighted_trees(phis, args.kmax, args.budget))
    result = check_tree_sum(a, args.Q, args.m, args.kmax, pairs)
    verdict = f"exact-match over {result.n_trees} trees"
    header = ["tree", "leaves", "internal", "weight_at_1", "qcount"]
    if args.format == "json":
        _emit_object(args, {"verdict": verdict, "trees": [dict(zip(header, r)) for r in rows]})
    else:
        sys.stdout.write(f"verdict: {verdict}\n")
        _emit_rows(args, header, rows)
    return EXIT_OK


def _cmd_lower_bound(args) -> int:
    a = _parse_density(args)
    cert = lower_bound_certificate(a, args.Q, args.m, args.k)
    engine_log2 = log2_face_number(a, args.Q * args.m, args.k, Engine.for_kmax(args.k))
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


def _cmd_asymptotics(args) -> int:
    a = _parse_density(args)
    delta = _parse_fraction(args.delta, "--delta")
    engine = Engine.parse(args.engine)
    rows = scan(a, delta, range(args.nmax + 1), engine)
    out = [
        [
            str(r.n),
            str(r.d),
            str(r.k),
            str(r.Q),
            str(r.m),
            str(r.p),
            _fmt_float(r.log2_coeff),
            _fmt_float(r.rho),
        ]
        for r in rows
    ]
    _emit_rows(args, ["n", "d", "k", "Q", "m", "p", "log2_coeff", "rho"], out, args.csv)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    a = _parse_density(args)
    poly = build_polytope(a, args.n)
    r_sq, r_inv_sq = radii(poly)
    rec = radii_recursion(a, args.n)
    d = 2**args.n
    obj = {
        "a": str(a),
        "n": args.n,
        "dim": d,
        "R2": str(r_sq),
        "r_inv_sq": str(r_inv_sq),
        "ratio_sq": str(r_sq * r_inv_sq),
    }
    failures = []
    if (r_sq, r_inv_sq) != (rec.R_sq, rec.r_inv_sq):
        failures.append("radii oracle disagrees with radii recursion")
    if r_sq * r_inv_sq != d:
        failures.append("(R/r)^2 != dimension")
    want_lattice = args.full_lattice or d <= 8
    if want_lattice:
        lattice = face_lattice(poly)
        fv = lattice.proper_f_vector()
        obj["f_vector"] = [str(x) for x in fv]
        obj["face_total"] = lattice.total
        if fv != proper_f_vector(a, args.n):
            failures.append("lattice f-vector disagrees with geometric engine")
        if lattice.total != 3**d:
            failures.append("face total differs from 3^dim")
    else:
        obj["f_vector"] = [str(x) for x in proper_f_vector(a, args.n)]
        obj["face_total"] = None
    obj["crosscheck_failures"] = failures
    _emit_object(args, obj)
    return EXIT_VERIFICATION if failures else EXIT_OK


def _cmd_flm_report(args) -> int:
    a = _parse_density(args)
    delta = _parse_fraction(args.delta, "--delta")
    engine = Engine.parse(args.engine)
    rows = scan(a, delta, range(args.nmax + 1), engine)
    report = flm_report(a, delta, rows, fit_tol=args.fit_tol)
    _emit_object(args, report)
    return EXIT_OK if report["fit_ok"] else EXIT_VERIFICATION


def _cmd_selftest(args) -> int:
    return EXIT_OK if run_selftest(sys.stdout) else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# parser assembly and entry point
# ---------------------------------------------------------------------------

def _add_density_flags(sub):
    sub.add_argument("--a", help="rational density parameter P/Q")
    sub.add_argument("--a-real", dest="a_real", help="high-precision density VALUE:BITS")


def build_parser() -> _Parser:
    parser = _Parser(prog="hannerfaces", description=__doc__)
    parser.add_argument("--config", help="key=value file of default flags")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("schedule", help="emit the product/hull step word")
    _add_density_flags(s)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=_cmd_schedule)

    s = subs.add_parser("fvector", help="coefficient vector of a recursion engine")
    _add_density_flags(s)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--kmax", type=int, required=True)
    s.add_argument("--engine", choices=("paper", "geometric", "log"), default="paper")
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
    s.add_argument("--budget", type=int, default=10**6)
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
    s.add_argument("--engine", choices=("paper", "geometric", "log"), default="paper")
    s.add_argument("--csv", help="write CSV to this path instead of stdout")
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=_cmd_asymptotics)

    s = subs.add_parser("oracle", help="exact small-dimension geometry oracle")
    _add_density_flags(s)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--full-lattice", action="store_true")
    s.add_argument("--format", choices=("csv", "json"), default="json")
    s.set_defaults(func=_cmd_oracle)

    s = subs.add_parser("flm-report", help="exponent triple, budget, and measured fit")
    _add_density_flags(s)
    s.add_argument("--delta", required=True, help="NUM/DEN in (0,1)")
    s.add_argument("--nmax", type=int, required=True)
    s.add_argument("--engine", choices=("paper", "geometric", "log"), default="log")
    s.add_argument("--fit-tol", dest="fit_tol", type=float, default=0.1)
    s.add_argument("--format", choices=("csv", "json"), default="json")
    s.set_defaults(func=_cmd_flm_report)

    s = subs.add_parser("selftest", help="run the desk-scale invariant suite")
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
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # --config leads the argv; its values become subcommand defaults
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
