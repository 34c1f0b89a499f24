import hashlib
import json

import pytest

from hannerfaces import cli, recursion, trees
from hannerfaces.cli import main
from hannerfaces.polys import log2_int
from hannerfaces.recursion import Engine
from hannerfaces.schedule import DensityParam


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestSchedule:
    def test_half_four_steps(self, run):
        code, out, _ = run("schedule", "--a", "1/2", "--steps", "4")
        assert code == 0
        assert out.splitlines() == ["n,kind", "0,P", "1,H", "2,P", "3,H"]

    def test_real_density(self, run):
        code, out, _ = run("schedule", "--a-real", "0.618:64", "--steps", "5")
        assert code == 0
        assert out.splitlines()[1] == "0,P"

    def test_json_format(self, run):
        code, out, _ = run("schedule", "--a", "1/2", "--steps", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == [{"n": "0", "kind": "P"}, {"n": "1", "kind": "H"}]


class TestFvector:
    def test_paper_row(self, run):
        code, out, _ = run("fvector", "--a", "1/2", "--n", "2", "--kmax", "5")
        assert code == 0
        assert out.splitlines()[3] == "2,34"

    def test_invalid_density_exits_3(self, run):
        code, _, err = run("fvector", "--a", "3/2", "--n", "2", "--kmax", "5")
        assert code == 3
        assert "(0,1)" in err

    def test_log_engine_emits_floats(self, run):
        code, out, _ = run(
            "fvector", "--a", "1/2", "--n", "2", "--kmax", "2", "--engine", "log"
        )
        assert code == 0
        assert out.splitlines()[1].startswith("0,3")  # log2 8 = 3


class TestPhi:
    def test_word_form(self, run):
        code, out, _ = run("phi", "--word", "SR")
        assert code == 0
        data = json.loads(out)
        assert data["K"] == [2, 4]
        assert data["A"] == "2" and data["lambda"] == 1
        assert data["C"]["4"] == ["0", "1"]

    def test_window_form(self, run):
        code, out, _ = run("phi", "--a", "1/2", "--Q", "2", "--m", "0")
        assert json.loads(out)["word"] == "SR"
        assert code == 0

    def test_missing_args(self, run):
        code, _, err = run("phi", "--a", "1/2")
        assert code == 3


class TestTrees:
    def test_verdict_and_stats(self, run):
        code, out, _ = run("trees", "--a", "1/2", "--Q", "2", "--m", "1", "--kmax", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "verdict: exact-match over 2 trees"
        assert lines[1] == "tree,leaves,internal,weight_at_1,qcount"
        assert len(lines) == 4

    def test_json_output_parses_with_the_verdict_inside(self, run):
        code, out, _ = run(
            "trees", "--a", "1/2", "--Q", "2", "--m", "1", "--kmax", "8", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "exact-match over 2 trees"
        assert [t["tree"] for t in data["trees"]] == ["0", "1"]

    # sha256 of stdout, pinned so the single tree pass keeps the output of
    # the two-pass version byte for byte.  The windows of a=2/5 coincide, so
    # qcount is filled; those of a=1/3 differ, so it is left empty.
    GOLDEN = {
        ("2/5", "16", "csv"): "a892fd0a7c4116c14fdbb2ca4f55045783fc1cb2e7500455e465934667f511cb",
        ("2/5", "16", "json"): "106aaade2d44e21ed50c806daa8fe250a4af82cd68878466288f0af00169201d",
        ("1/3", "8", "csv"): "274da7598675cdfa1807d2856a1aa8afd8bf14029e41a38addeb327c7a787e38",
        ("1/3", "8", "json"): "3b84acc5b24f3e3dcb6021b72a8bed9c190ed8a895f285f47832e88a922c790e",
    }

    @pytest.mark.parametrize(("a", "kmax", "fmt"), sorted(GOLDEN))
    def test_output_bytes_pinned(self, run, a, kmax, fmt):
        code, out, _ = run("trees", "--a", a, "--Q", "2", "--m", "2", "--kmax", kmax, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[(a, kmax, fmt)]

    def test_each_tree_weighed_once(self, run, monkeypatch):
        calls = []
        weigh = trees.tree_weight

        def counted(*args):
            calls.append(args[0])
            return weigh(*args)

        for mod in (trees, cli):  # every name the weight could be resolved by
            monkeypatch.setattr(mod, "tree_weight", counted, raising=False)
        code, out, _ = run("trees", "--a", "1/2", "--Q", "2", "--m", "2", "--kmax", "8")
        assert code == 0
        n_trees = int(out.splitlines()[0].split()[-2])
        assert n_trees == 20
        assert len(calls) == n_trees
        assert len(set(calls)) == n_trees

    def test_budget_exceeded_exits_3(self, run):
        code, _, err = run(
            "trees", "--a", "1/2", "--Q", "2", "--m", "2", "--kmax", "4", "--budget", "3"
        )
        assert code == 3
        assert "budget" in err


class TestLowerBound:
    def test_half_example(self, run):
        code, out, _ = run("lower-bound", "--a", "1/2", "--Q", "2", "--m", "3", "--k", "8")
        assert code == 0
        data = json.loads(out)
        assert data["h"] == 1 and data["jstar"] == 4
        assert data["L"] == 16 and data["bound_log2"] == 8
        assert data["bound_holds"] is True

    def test_violated_precondition(self, run):
        code, _, err = run("lower-bound", "--a", "1/2", "--Q", "2", "--m", "2", "--k", "32")
        assert code == 3


class TestEnginePolicy:
    """lower-bound and upper_bound_report read a_{n,k} from the exact engine
    up to k = 1024 and from the log engine above it, at truncation bound k."""

    @pytest.mark.parametrize(("k", "engine"), [(1024, Engine.PAPER_EXACT), (1025, Engine.PAPER_LOG)])
    def test_boundary(self, run, monkeypatch, k, engine):
        states = []
        real_run = recursion.run

        def spy(a, n, kmax, engine):
            states.append(real_run(a, n, kmax, engine))
            return states[-1]

        monkeypatch.setattr(recursion, "run", spy)
        report = trees.upper_bound_report(DensityParam.rational(1, 2), 2, 5, k)
        code, out, _ = run("lower-bound", "--a", "1/2", "--Q", "2", "--m", "5", "--k", str(k))
        assert code == 0
        assert [(s.n, s.kmax, s.engine) for s in states] == [(10, k, engine)] * 2
        poly = states[0].poly
        want = float(poly.log2_coeffs[k]) if engine.is_log else log2_int(poly.coeffs[k])
        assert report.log2_coeff == want
        assert json.loads(out)["engine_log2"] == format(want, ".17g")


class TestAsymptotics:
    def test_csv_stdout(self, run):
        code, out, _ = run(
            "asymptotics", "--a", "1/2", "--delta", "1/2", "--nmax", "6", "--engine", "paper"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,d,k,Q,m,p,log2_coeff,rho"
        assert len(lines) == 8

    def test_csv_file(self, run, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run(
            "asymptotics",
            "--a",
            "1/2",
            "--delta",
            "1/2",
            "--nmax",
            "4",
            "--csv",
            str(path),
        )
        assert code == 0
        assert out == ""
        assert path.read_text().splitlines()[0] == "n,d,k,Q,m,p,log2_coeff,rho"

    def test_bad_delta(self, run):
        code, _, err = run("asymptotics", "--a", "1/2", "--delta", "3/2", "--nmax", "4")
        assert code == 3


class TestOracle:
    def test_half_n2(self, run):
        code, out, _ = run("oracle", "--a", "1/2", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["f_vector"] == ["8", "24", "32", "16"]
        assert data["face_total"] == 81
        assert data["ratio_sq"] == "4"
        assert data["crosscheck_failures"] == []

    def test_crosscheck_failure_exits_2(self, run, monkeypatch):
        monkeypatch.setattr(cli, "proper_f_vector", lambda a, n: [8, 24, 32, 17])
        code, out, _ = run("oracle", "--a", "1/2", "--n", "2")
        assert code == 2
        assert json.loads(out)["crosscheck_failures"] == [
            "lattice f-vector disagrees with geometric engine"
        ]

    def test_n4_skips_lattice(self, run):
        code, out, _ = run("oracle", "--a", "2/5", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["face_total"] is None
        assert data["ratio_sq"] == "16"


class TestFlmReport:
    def test_desk_scale(self, run):
        code, out, _ = run(
            "flm-report",
            "--a",
            "1/2",
            "--delta",
            "1/2",
            "--nmax",
            "14",
            "--engine",
            "paper",
            "--fit-tol",
            "0.2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["theoretical"]["total"] == 2.25
        assert data["fit_ok"] is True

    def test_tight_tolerance_fails_with_2(self, run):
        code, out, _ = run(
            "flm-report",
            "--a",
            "1/2",
            "--delta",
            "1/2",
            "--nmax",
            "12",
            "--engine",
            "paper",
            "--fit-tol",
            "0.0001",
        )
        assert code == 2


class TestPlumbing:
    def test_unknown_flag_exits_3(self, run):
        code, _, err = run("schedule", "--a", "1/2", "--steps", "2", "--frobnicate")
        assert code == 3

    def test_unknown_subcommand_exits_3(self, run):
        code, _, _ = run("transmogrify")
        assert code == 3

    def test_determinism(self, run):
        a = run("asymptotics", "--a", "1/3", "--delta", "1/2", "--nmax", "8")
        b = run("asymptotics", "--a", "1/3", "--delta", "1/2", "--nmax", "8")
        assert a == b

    def test_config_defaults_and_override(self, run, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("# defaults\na=1/2\nsteps=3\n")
        code, out, _ = run("--config", str(cfg), "schedule")
        assert code == 0
        assert len(out.splitlines()) == 4
        code, out, _ = run("--config", str(cfg), "schedule", "--steps", "2")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_missing_config(self, run):
        code, _, err = run("--config", "/nonexistent.cfg", "schedule", "--steps", "1")
        assert code == 3
