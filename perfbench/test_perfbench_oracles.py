"""Each output oracle accepts the CLI's real output and rejects a corrupted copy."""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hannerfaces import cli  # noqa: E402

import oracles  # noqa: E402

HALF, THIRD, DELTA = Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)


def run_cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def replace_line(text: str, index: int, edit) -> str:
    lines = text.splitlines(keepends=True)
    lines[index] = edit(lines[index])
    return "".join(lines)


def test_fvector_oracle_rejects_one_changed_coefficient():
    out = run_cli("fvector", "--a", "1/2", "--n", "7", "--kmax", "20", "--engine", "paper")
    assert oracles.check_fvector(out, HALF, 7, 20) == []
    bad = replace_line(out, 6, lambda ln: f"5,{int(ln.split(',')[1]) + 1}\n")
    assert oracles.check_fvector(bad, HALF, 7, 20) == ["fvector: a_{7,5} differs from the residue recursion"]


def test_asymptotics_oracle_rejects_one_perturbed_row():
    out = run_cli("asymptotics", "--a", "1/3", "--delta", "1/2", "--nmax", "10", "--engine", "paper")
    assert oracles.check_asymptotics(out, THIRD, DELTA, 10) == []

    def perturb(line):
        cells = line.rstrip("\n").split(",")
        cells[6] = repr(float(cells[6]) * (1 + 1e-5))
        return ",".join(cells) + "\n"

    errors = oracles.check_asymptotics(replace_line(out, 9, perturb), THIRD, DELTA, 10)
    assert len(errors) == 1 and "row 8 log2_coeff" in errors[0]


def test_flm_report_oracle_rejects_one_perturbed_log_row():
    out = run_cli("flm-report", "--a", "1/3", "--delta", "1/2", "--nmax", "18", "--engine", "log")
    assert oracles.check_flm_report(out, THIRD, True, DELTA, 18) == []
    rep = json.loads(out)
    rep["envelope"]["rhos"][9] *= 1 + 1e-8
    errors = oracles.check_flm_report(json.dumps(rep), THIRD, True, DELTA, 18)
    assert len(errors) == 1 and "row n=10 rho" in errors[0]


def test_trees_oracle_rejects_a_wrong_tree_count():
    out = run_cli("trees", "--a", "1/2", "--Q", "2", "--m", "2", "--kmax", "16")
    assert oracles.count_trees(HALF, 2, 2) == 20
    assert oracles.check_trees(out, HALF, 2, 2) == []
    missing_row = "".join(out.splitlines(keepends=True)[:-1])
    assert "trees: 19 tree rows, closed-form count is 20" in oracles.check_trees(missing_row, HALF, 2, 2)
    wrong_verdict = out.replace("over 20 trees", "over 21 trees", 1)
    assert len(oracles.check_trees(wrong_verdict, HALF, 2, 2)) == 1


def test_phi_oracle_rejects_one_changed_table_entry():
    out = run_cli("phi", "--word", "SRRS")
    points = [(3, 5), (123456789, 987654321)]
    assert oracles.check_phi(out, "SRRS", points) == []
    rep = json.loads(out)
    rep["C"]["8"][1] = str(int(rep["C"]["8"][1]) + 1)
    assert oracles.check_phi(json.dumps(rep), "SRRS", points) == [
        f"phi: table disagrees with direct composition at x={x}, t={t}" for x, t in points
    ]


def test_lower_bound_and_oracle_checks_reject_failed_reports():
    out = run_cli("lower-bound", "--a", "1/2", "--Q", "2", "--m", "3", "--k", "8")
    assert oracles.check_lower_bound(out, HALF, 2, 3, 8) == []
    rep = json.loads(out)
    rep["bound_holds"] = False
    assert len(oracles.check_lower_bound(json.dumps(rep), HALF, 2, 3, 8)) == 1
    out = run_cli("oracle", "--a", "1/3", "--n", "2", "--full-lattice")
    assert oracles.check_oracle(out, 2) == []
    rep = json.loads(out)
    rep["face_total"] -= 1
    assert len(oracles.check_oracle(json.dumps(rep), 2)) == 1

