"""Independent references for the benchmark's output checks.

Nothing here imports hannerfaces.  Every check recomputes what a CLI
output must say from the definitions (the step schedule, the recursion
F -> F^2 or t*F^2 + 2F, the window maps S(x) = x^2 and R(x) = t*x^2 + 2x),
so a defect in the package cannot pass by agreeing with itself.  Each
``check_*`` function takes the captured stdout of one CLI call and
returns a list of error strings; an empty list means the output is right.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from operator import mul

import numpy as np

PRIME = (1 << 61) - 1  # Mersenne prime for the residue recursion
NEG_INF = float("-inf")

EXACT_VS_LOG_RTOL = 1e-6  # acceptance criterion 10
LOG_VS_REFERENCE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# schedule and window words
# ---------------------------------------------------------------------------

def parse_density(text: str) -> Fraction:
    """``P/Q`` or ``VALUE:BITS`` (the CLI's --a / --a-real forms) as a Fraction."""
    if ":" in text:
        return Fraction(text.rsplit(":", 1)[0])
    p, q = text.split("/")
    return Fraction(int(p), int(q))


def is_product(n: int, a: Fraction) -> bool:
    """Step n is a Product iff [n*a, (n+1)*a) contains an integer."""
    return math.ceil(n * a) < (n + 1) * a


def word(a: Fraction, start: int, length: int) -> str:
    """Window word over S (Product) / R (Hull), innermost step first."""
    return "".join("S" if is_product(n, a) else "R" for n in range(start, start + length))


def window_support(w: str) -> set[int]:
    """x-degrees of the composed window map; all coefficients are positive,
    so no term cancels."""
    degs = {1}
    for letter in w:
        sq = {i + j for i in degs for j in degs}
        degs = sq if letter == "S" else sq | degs
    return degs


def count_trees(a: Fraction, Q: int, m: int) -> int:
    """Number of uniform-height-m trees whose internal degrees at each level
    come from the support of that level's window map."""
    c = 1
    for j in range(m):
        c = sum(c**k for k in window_support(word(a, Q * j, Q)))
    return c


def window_q(n: int, a: Fraction, rational: bool) -> int:
    """Window length of a scan row: q for a = p/q, else round(sqrt(n))."""
    return a.denominator if rational else max(1, round(math.sqrt(max(n, 1))))


def floor_d_delta(n: int, delta: Fraction) -> int:
    """floor((2^n)^delta) in integer arithmetic."""
    x, r = 2 ** (n * delta.numerator), delta.denominator
    y = int(round(2.0 ** (n * float(delta))))
    while y**r > x:
        y -= 1
    while (y + 1) ** r <= x:
        y += 1
    return y


# ---------------------------------------------------------------------------
# reference recursions
# ---------------------------------------------------------------------------

def residue_face_numbers(a: Fraction, n: int, kmax: int, prime: int = PRIME) -> list[int]:
    """a_{n,k} mod ``prime`` for k <= kmax, by schoolbook truncated squaring."""
    f = ([2, 1] + [0] * kmax)[: kmax + 1]
    for j in range(n):
        sq = []
        for k in range(kmax + 1):
            h = (k + 1) // 2  # pairs (i, k-i) with i < k-i
            s = 2 * sum(map(mul, f[:h], f[k - h + 1 : k + 1][::-1]))
            if k % 2 == 0:
                s += f[k // 2] ** 2
            sq.append(s % prime)
        if is_product(j, a):
            f = sq
        else:
            f = [((sq[k - 1] if k else 0) + 2 * f[k]) % prime for k in range(kmax + 1)]
    return f


def _log_square(f: np.ndarray, width: int) -> np.ndarray:
    """Truncated log2-domain square, full width: out[k] = log2 sum_i 2^(f[i]+f[k-i])."""
    out = np.full(f.shape[0], NEG_INF)
    for k in range(width):
        h = (k + 1) // 2
        terms = [f[:h] + f[k - h + 1 : k + 1][::-1] + 1.0]  # each off-diagonal pair twice
        if k % 2 == 0:
            terms.append(np.array([2.0 * f[k // 2]]))
        s = np.concatenate(terms)
        top = s.max()
        out[k] = NEG_INF if top == NEG_INF else top + math.log2(np.exp2(s - top).sum())
    return out


def log_trajectory(a: Fraction, nmax: int, kmax: int) -> list[np.ndarray]:
    """log2 a_{n,k} (k <= kmax) for every n = 0..nmax from one pass.

    Coefficient k after a step depends only on coefficients <= k before it,
    so one run at the largest truncation gives every row of a scan.
    """
    f = np.full(kmax + 1, NEG_INF)
    f[0] = 1.0
    if kmax >= 1:
        f[1] = 0.0
    states = [f]
    degree = 1
    for j in range(nmax):
        sq = _log_square(f, min(kmax, 2 * degree) + 1)  # entries past the degree stay -inf
        if is_product(j, a):
            f, degree = sq, 2 * degree
        else:
            shifted = np.concatenate(([NEG_INF], sq[:-1]))
            f, degree = np.logaddexp2(shifted, f + 1.0), 2 * degree + 1
        states.append(f)
    return states


def _close(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * abs(ref)


def _scan_expectations(a: Fraction, rational: bool, delta: Fraction, nmax: int):
    """Per row n: (k, Q, m, p, log2 a_{n,k}, rho) from the log reference."""
    ks = [floor_d_delta(n, delta) for n in range(nmax + 1)]
    traj = log_trajectory(a, nmax, max(max(ks), 1))
    rows = []
    for n, k in enumerate(ks):
        Q = window_q(n, a, rational)
        m = n // Q
        p = word(a, Q * m, Q).count("S")
        value = float(traj[n][k])
        rows.append((k, Q, m, p, value, value / (2.0 ** (m * p) * k ** (1.0 - p / Q))))
    return rows


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _csv_rows(stdout: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != header:
        raise ValueError(f"CSV header {rows[0] if rows else None!r} != {header!r}")
    return rows[1:]


def check_fvector(stdout: str, a: Fraction, n: int, kmax: int) -> list[str]:
    """Exact coefficients agree with the residue recursion modulo PRIME."""
    rows = _csv_rows(stdout, ["k", "coefficient"])
    if len(rows) != kmax + 1:
        return [f"fvector: {len(rows)} rows, want {kmax + 1}"]
    ref = residue_face_numbers(a, n, kmax)
    errors = []
    for k, (kk, coeff) in enumerate(rows):
        if int(kk) != k:
            errors.append(f"fvector: row {k} is labelled k={kk}")
        elif int(coeff) % PRIME != ref[k]:
            errors.append(f"fvector: a_{{{n},{k}}} differs from the residue recursion")
    return errors


def check_asymptotics(stdout: str, a: Fraction, delta: Fraction, nmax: int) -> list[str]:
    """Exact scan rows: indices, window data, and log2 a_{n,k} within 1e-6 of
    the log-domain recursion."""
    rows = _csv_rows(stdout, ["n", "d", "k", "Q", "m", "p", "log2_coeff", "rho"])
    if len(rows) != nmax + 1:
        return [f"asymptotics: {len(rows)} rows, want {nmax + 1}"]
    errors = []
    for n, (row, (k, Q, m, p, value, rho)) in enumerate(
        zip(rows, _scan_expectations(a, True, delta, nmax))
    ):
        if [int(x) for x in row[:6]] != [n, 2**n, k, Q, m, p]:
            errors.append(f"asymptotics: row {n} indices {row[:6]} != {[n, 2**n, k, Q, m, p]}")
        elif not _close(float(row[6]), value, EXACT_VS_LOG_RTOL):
            errors.append(f"asymptotics: row {n} log2_coeff {row[6]} vs log reference {value!r}")
        elif not _close(float(row[7]), rho, EXACT_VS_LOG_RTOL):
            errors.append(f"asymptotics: row {n} rho {row[7]} vs log reference {rho!r}")
    return errors


def check_flm_report(
    stdout: str, a: Fraction, rational: bool, delta: Fraction, nmax: int
) -> list[str]:
    """Log scan report: envelope ratios and fitted slope agree with the
    full-width log-sum-exp recursion, the exponent triple with its formula,
    and the fit passes."""
    rep = json.loads(stdout)
    errors = []
    if rep.get("fit_ok") is not True:
        errors.append("flm-report: fit_ok is not true")
    av, dv = float(a), float(delta)
    triple = {
        "facet_exponent": 1.0 - av,
        "vertex_exponent": av + dv * (1.0 - av),
        "radii_exponent": 1.0 - dv + av,
        "total": 2.0 + av * (1.0 - dv),
    }
    for key, want in triple.items():
        if not _close(rep["theoretical"][key], want, 1e-12):
            errors.append(f"flm-report: theoretical {key} {rep['theoretical'][key]} != {want}")
    rows = [
        (n, value, rho)
        for n, (_, _, _, _, value, rho) in enumerate(_scan_expectations(a, rational, delta, nmax))
        if value > 0
    ]
    rhos = rep["envelope"]["rhos"]
    if len(rhos) != len(rows):
        return errors + [f"flm-report: {len(rhos)} envelope rows, want {len(rows)}"]
    for got, (n, _, rho) in zip(rhos, rows):
        if not _close(got, rho, LOG_VS_REFERENCE_RTOL):
            errors.append(f"flm-report: row n={n} rho {got!r} vs reference {rho!r}")
    used = [(n, value) for n, value, _ in rows if not rational or n % a.denominator == 0]
    xs = [n for n, _ in used]
    ys = [math.log2(v) for _, v in used]
    cnt, sx, sy = len(xs), sum(xs), sum(ys)
    slope = (cnt * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / (
        cnt * sum(x * x for x in xs) - sx * sx
    )
    if rep["fit"]["n_used"] != xs:
        errors.append(f"flm-report: fit rows {rep['fit']['n_used']} != {xs}")
    if not _close(rep["measured_vertex_exponent"], slope, LOG_VS_REFERENCE_RTOL):
        errors.append(
            f"flm-report: slope {rep['measured_vertex_exponent']!r} vs reference {slope!r}"
        )
    return errors


def check_trees(stdout: str, a: Fraction, Q: int, m: int) -> list[str]:
    """One CSV row per tree, as many as the closed-form count.

    A leading ``verdict: exact-match over N trees`` line (the CLI prints it
    before the table) must name the same N.
    """
    lines = stdout.splitlines(keepends=True)
    verdict = None
    if lines and lines[0].startswith("verdict:"):
        verdict = lines.pop(0).split()
    rows = _csv_rows("".join(lines), ["tree", "leaves", "internal", "weight_at_1", "qcount"])
    want = count_trees(a, Q, m)
    errors = []
    if len(rows) != want:
        errors.append(f"trees: {len(rows)} tree rows, closed-form count is {want}")
    if verdict is not None and verdict != ["verdict:", "exact-match", "over", str(want), "trees"]:
        errors.append(f"trees: verdict {' '.join(verdict)!r} does not report {want} trees")
    if [row[0] for row in rows] != [str(i) for i in range(len(rows))]:
        errors.append("trees: tree ids are not 0..N-1")
    if any(int(row[1]) < 1 for row in rows):
        errors.append("trees: a tree with no leaves")
    return errors


def phi_at(w: str, x: int, t: int, prime: int = PRIME) -> int:
    """phi(x) at one point mod ``prime``, composing the letters directly."""
    for letter in w:
        x = (x * x if letter == "S" else t * x * x + 2 * x) % prime
    return x


def check_phi(stdout: str, w: str, points) -> list[str]:
    """Window map: word, support, t-free and top terms, and the full
    coefficient table evaluated at a few (x, t) points mod PRIME against
    direct composition of the letters."""
    rep = json.loads(stdout)
    errors = []
    p = w.count("S")
    tfree = 1  # t = 0 leaves S: c*x^e -> c^2*x^(2e) and R: c*x^e -> 2c*x^e
    lam = 0  # top term: S doubles the t-degree, R doubles it and adds one
    for letter in w:
        tfree = tfree * tfree if letter == "S" else 2 * tfree
        lam = 2 * lam + (letter == "R")
    want = {
        "word": w,
        "Q": len(w),
        "p": p,
        "K": sorted(window_support(w)),
        "A": str(tfree),
        "B": "1",
        "lambda": lam,
    }
    for key, value in want.items():
        if rep.get(key) != value:
            errors.append(f"phi: {key} = {str(rep.get(key))[:60]!r}, want {str(value)[:60]!r}")
    if sorted(int(k) for k in rep["C"]) != want["K"]:
        return errors + ["phi: coefficient table keys differ from the support"]
    table = {
        int(k): [int(c) % PRIME for c in coeffs] for k, coeffs in rep["C"].items()
    }
    for x, t in points:
        total = 0
        for k, coeffs in table.items():
            ck = 0
            for c in reversed(coeffs):
                ck = (ck * t + c) % PRIME
            total = (total + ck * pow(x, k, PRIME)) % PRIME
        if total != phi_at(w, x, t):
            errors.append(f"phi: table disagrees with direct composition at x={x}, t={t}")
    return errors


def check_lower_bound(stdout: str, a: Fraction, Q: int, m: int, k: int) -> list[str]:
    """The certificate holds, and its engine value matches the log reference."""
    rep = json.loads(stdout)
    errors = []
    if rep.get("bound_holds") is not True:
        errors.append(f"lower-bound: bound_holds is {rep.get('bound_holds')!r}")
    ref = float(log_trajectory(a, Q * m, k)[Q * m][k])
    if not _close(float(rep["engine_log2"]), ref, EXACT_VS_LOG_RTOL):
        errors.append(f"lower-bound: engine_log2 {rep['engine_log2']} vs reference {ref!r}")
    if rep["bound_log2"] > ref:
        errors.append(f"lower-bound: bound 2^{rep['bound_log2']} exceeds a_(Qm,k)")
    return errors


def check_oracle(stdout: str, n: int) -> list[str]:
    """Full face lattice of the 2^n-dimensional polytope: 3^d faces in all,
    an f-vector summing to 3^d - 1, (R/r)^2 = d, no cross-check failures."""
    rep = json.loads(stdout)
    d = 2**n
    errors = []
    if rep.get("crosscheck_failures") != []:
        errors.append(f"oracle: cross-check failures {rep.get('crosscheck_failures')!r}")
    if rep.get("face_total") != 3**d:
        errors.append(f"oracle: {rep.get('face_total')} faces, want {3**d}")
    fv = [int(x) for x in rep.get("f_vector", [])]
    if len(fv) != d or sum(fv) != 3**d - 1:
        errors.append(f"oracle: proper f-vector {fv} does not sum to 3^{d} - 1")
    if rep.get("ratio_sq") != str(d):
        errors.append(f"oracle: (R/r)^2 = {rep.get('ratio_sq')}, want {d}")
    return errors
