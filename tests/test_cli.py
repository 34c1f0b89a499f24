import argparse
import contextlib
import csv
import dataclasses
import decimal
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hannerfaces import _kernels, cli, geometry, recursion, selftest, trees
from hannerfaces.asymptotics import ScanRow
from hannerfaces.cli import main
from hannerfaces.polys import DecimalPoly, IntPoly
from hannerfaces.recursion import Engine
from hannerfaces.schedule import DensityParam, StepKind, is_product_step


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

    def test_a_failure_at_a_late_step_prints_nothing(self, run):
        # step 5 needs 13 bits: every step is decided before the first byte
        code, out, err = run("schedule", "--a-real", "0.6180339887:12", "--steps", "20")
        assert (code, out) == (3, "")
        assert "insufficient for step 5" in err


# cells that JSON must escape or that a %-template would misread
_CELL = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\n\x7f\u00e9\u2028\ud800\udfff%,')),
    max_size=6,
)


@st.composite
def _tables(draw):
    header = draw(st.lists(_CELL, unique=True, max_size=4))
    rows = draw(st.lists(st.lists(_CELL, min_size=len(header), max_size=len(header)), max_size=7))
    return header, rows


class TestEmitRows:
    """``_emit_rows`` streams a table byte for byte as the whole-output forms:
    ``json.dumps(..., indent=2)`` and one CSV join."""

    @staticmethod
    def _written(fmt, chunk, header, rows, head=(), key=None):
        args = argparse.Namespace(format=fmt)
        with mock.patch.object(cli, "_ROWS_PER_WRITE", chunk), contextlib.redirect_stdout(io.StringIO()) as out:
            cli._emit_rows(args, header, iter(rows), head=head, key=key)
        return out.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(_tables(), st.integers(1, 3))
    def test_bare_table(self, table, chunk):
        header, rows = table
        listed = [dict(zip(header, row)) for row in rows]
        assert self._written("json", chunk, header, rows) == json.dumps(listed, indent=2) + "\n"
        csv = "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"
        assert self._written("csv", chunk, header, rows) == csv

    @settings(max_examples=200, deadline=None)
    @given(_tables(), st.integers(1, 3), st.dictionaries(_CELL, _CELL, min_size=1, max_size=2), _CELL)
    def test_table_under_a_head(self, table, chunk, head, key):
        header, rows = table
        listed = [dict(zip(header, row)) for row in rows]
        assume(key not in head)
        got = self._written("json", chunk, header, rows, list(head.items()), key)
        assert got == json.dumps({**head, key: listed}, indent=2) + "\n"
        csv = "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"
        lines = "".join(f"{k}: {v}\n" for k, v in head.items())
        assert self._written("csv", chunk, header, rows, list(head.items()), key) == lines + csv

    def test_empty_tables(self):
        assert self._written("json", 2, ["n"], []) == "[]\n"
        assert self._written("csv", 2, ["n"], []) == "n\n"
        got = self._written("json", 2, ["n"], [], [("verdict", "v")], "trees")
        assert got == json.dumps({"verdict": "v", "trees": []}, indent=2) + "\n"


# JSON values as the CLI's objects hold them, nested, with strings JSON must escape
_JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\,\r\n\u00e9\u2028')), max_size=6)
_JSON_VALUES = st.recursive(
    st.one_of(
        _JSON_TEXT,
        st.integers(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.booleans(),
        st.none(),
    ),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=12,
)


class TestEmitObject:
    """``_emit_object`` writes JSON byte for byte as ``json.dumps(..., indent=2)``,
    and CSV that the csv module reads back as one (key, value) pair per row."""

    @staticmethod
    def _written(fmt, obj):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli._emit_object(argparse.Namespace(format=fmt), obj)
        return out.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=5))
    def test_json_bytes_and_csv_fields(self, obj):
        assert self._written("json", obj) == json.dumps(obj, indent=2) + "\n"
        rows = list(csv.reader(io.StringIO(self._written("csv", obj), newline="")))
        assert rows[0] == ["key", "value"]
        cells = [[k, json.dumps(v) if isinstance(v, (dict, list)) else str(v)] for k, v in obj.items()]
        assert rows[1:] == cells

    def test_empty_containers_and_special_floats(self):
        obj = {"a": [], "b": {}, "c": [[], {}], "d": [float("nan"), float("inf"), -float("inf"), -0.0]}
        assert self._written("json", obj) == json.dumps(obj, indent=2) + "\n"

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError):
            self._written("json", {"a": decimal.Decimal(1)})

    @pytest.mark.parametrize(
        "argv",
        [
            ("phi", "--word", "SRR"),
            ("lower-bound", "--a", "1/2", "--Q", "2", "--m", "3", "--k", "8"),
            ("oracle", "--a", "1/2", "--n", "2"),
            ("flm-report", "--a", "1/2", "--delta", "1/2", "--nmax", "8", "--engine", "paper"),
        ],
        ids=["phi", "lower-bound", "oracle", "flm-report"],
    )
    def test_every_object_csv_row_reads_as_two_fields(self, run, argv):
        code, out, err = run(*argv, "--format", "csv")
        assert code in (0, 2) and err == ""
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert [len(row) for row in rows] == [2] * len(rows)
        _, json_out, _ = run(*argv, "--format", "json")
        cells = dict(rows[1:])
        for key, value in json.loads(json_out).items():
            if isinstance(value, (dict, list)):
                assert json.loads(cells[key]) == value
            else:
                assert cells[key] == str(value)


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

    def test_prints_coefficients_of_millions_of_digits(self, run):
        code, out, _ = run("fvector", "--a", "1/2", "--n", "42", "--kmax", "1")
        assert code == 0
        texts = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert [len(t) for t in texts] == [1_262_612, 2_525_222]
        for m in (2**61 - 1, 10**18):  # the two-coefficient recursion at K=1, modulo m
            c0, c1 = 2, 1
            for j in range(42):
                if is_product_step(j, DensityParam.rational(1, 2)) is StepKind.PRODUCT:
                    c0, c1 = c0 * c0 % m, 2 * c0 * c1 % m
                else:
                    c0, c1 = 2 * c0 % m, (c0 * c0 + 2 * c1) % m
            with decimal.localcontext(decimal.Context(prec=len(texts[1]), Emax=decimal.MAX_EMAX)):
                assert [int(decimal.Decimal(t) % m) for t in texts] == [c0, c1]


    def test_past_the_degree_runs_small_and_prints_the_same_bytes(self):
        # F_4 of a = 1/2 has degree 21, and the largest K admitted prints 2,097,131
        # zeros after it.  While every state held K+1 slots this took 26.3 s at
        # 1030 MiB as a child process (2-CPU Xeon VM); the sha256 is that run's.
        argv = ["fvector", "--a", "1/2", "--n", "4", "--kmax", "2097151"]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        # A child's ru_maxrss counts the memory of the process it was started
        # from, up to its exec, so the CLI is started from a small interpreter
        # that reports its child's peak (KiB) on stderr.
        peak = (
            "import resource, subprocess, sys\n"
            "code = subprocess.call(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        digest, lines = hashlib.sha256(), 0
        start = time.monotonic()
        with subprocess.Popen(
            [sys.executable, "-c", peak, sys.executable, "-m", "hannerfaces.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
                digest.update(chunk)
                lines += chunk.count(b"\n")
            err = proc.stderr.read().decode()
        seconds = time.monotonic() - start
        assert proc.returncode == 0
        assert lines == 1 + 2097152  # the header and K + 1 rows
        assert digest.hexdigest() == "85bbc483421d37335f188a6a56a11b9c1ec8013b34479916dd1bf9096822e5e1"
        assert re.fullmatch(r"\d+\n", err)  # nothing on stderr but the peak
        assert int(err) < 103 * 1024  # a tenth of the 1030 MiB it took
        assert seconds < 10.0  # 0.7 s measured; loose, for a loaded host

    def test_a_state_short_of_k_is_admitted_and_prints_zeros_above_it(self, run):
        # F_12 of a = 1/2 has degree 5461, so K = 20000 keeps the 5,462 slots
        # K = 5461 keeps.  Sized at K + 1 slots it was refused (135.8 Mbit);
        # it runs in 0.95–1.08 s at 69 MiB as a child process (2-CPU Xeon VM).
        argv = ["fvector", "--a", "1/2", "--n", "12", "--kmax", "20000"]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        # started from a small interpreter that reports its child's peak (KiB)
        # on stderr, as in the test above
        peak = (
            "import resource, subprocess, sys\n"
            "code = subprocess.call(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", peak, sys.executable, "-m", "hannerfaces.cli", *argv],
            capture_output=True, env=env,
        )
        seconds = time.monotonic() - start
        assert proc.returncode == 0
        rows = proc.stdout.decode().splitlines()
        assert len(rows) == 1 + 20001  # the header and K + 1 rows
        code, short, _ = run("fvector", "--a", "1/2", "--n", "12", "--kmax", "5461")
        assert code == 0
        assert rows[: 1 + 5462] == short.splitlines()
        assert rows[1 + 5462 :] == [f"{k},0" for k in range(5462, 20001)]
        err = proc.stderr.decode()
        assert re.fullmatch(r"\d+\n", err)  # nothing on stderr but the peak
        assert int(err) < 100 * 1024
        assert seconds < 10.0


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

    @pytest.mark.parametrize("extra", [(), ("--a", "1/2", "--Q", "2", "--m", "0")])
    def test_empty_word_is_refused_not_ignored(self, run, extra):
        code, out, err = run("phi", "--word", "", *extra)
        assert (code, out) == (3, "")
        assert err == "error: window word must be nonempty\n"

    @pytest.mark.parametrize(
        "extra",
        [
            ("--a", "1/2", "--Q", "3", "--m", "0"),
            ("--a", "1/2"),
            ("--a-real", "0.618:64"),
            ("--Q", "3"),
            ("--m", "0"),
        ],
    )
    def test_word_with_density_flags_is_refused(self, run, monkeypatch, extra):
        monkeypatch.setattr(cli, "compose_window", lambda word: pytest.fail("map composed"))
        code, out, err = run("phi", "--word", "SR", *extra)
        assert (code, out) == (3, "")
        assert err == "error: give either --word or --a/--a-real/--Q/--m, not both\n"

    def test_word_with_density_from_config_is_refused(self, run, tmp_path):
        # config flags count as given, so a density config and --word conflict
        cfg = tmp_path / "density.cfg"
        cfg.write_text("a=1/2\nQ=3\nm=1\n")
        code, out, err = run("--config", str(cfg), "phi", "--word", "SR")
        assert (code, out) == (3, "")
        assert err == "error: give either --word or --a/--a-real/--Q/--m, not both\n"
        code, out, _ = run("--config", str(cfg), "phi")
        assert code == 0 and '"word": "RSR"' in out

    # sha256 of stdout, recorded before the composer packed bands; the CSV one
    # again once the object CSV quoted its nested cells, which alone changed.
    GOLDEN = {
        ("1/2", "json"): "69cf2bb0033b995bc04cdefadcdc48c5ddb1c2d9c754d528986ada730548cbc6",
        ("3/7", "json"): "2383782b1e896b5e18e11ecb3055569f46bdc3536fb915d9bd32dde34b2d5981",
        ("4/9", "json"): "ed352c3cc7dd51986b487bac7812c372b473e0a748f6e46a2c74829d952749a6",
        ("1/2", "csv"): "da2e8ce6851284b2513f6806ff312fb42f104226bafe437e81f10fc87941eebb",
    }

    @pytest.mark.parametrize(("a", "fmt"), sorted(GOLDEN))
    def test_output_bytes_pinned(self, run, a, fmt):
        code, out, _ = run("phi", "--a", a, "--Q", "9", "--m", "0", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[(a, fmt)]

    def test_prints_the_bands_without_building_an_intpoly(self, run, monkeypatch):
        built = []
        original = IntPoly.__post_init__

        def spy(self):
            built.append(self.kmax)
            original(self)

        monkeypatch.setattr(IntPoly, "__post_init__", spy)
        IntPoly.zero(3)  # the spy sees every IntPoly built
        assert built == [3]
        code, _, _ = run("phi", "--a", "1/2", "--Q", "9", "--m", "0")
        assert code == 0
        assert built == [3]


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

    # sha256 of stdout for larger families, recorded from the version that
    # built and walked every tree: the 9837 trees of the certify instance
    # (CSV and JSON), a=2/5 and a=1/3 at Q=3 (69,904 trees), and 160,400
    # trees of height 3.
    GOLDEN_LARGE = {
        ("1/2", "3", "2", "csv"): "18052ed5b7ea93ab146ab5cae5d043ecf3afc44335cbd0a0e56465f8cf82a84d",
        ("1/2", "3", "2", "json"): "fc64fb224f0990c75f8b0bf9fe1b258fe53e0bab79e061e09491bcd25a3f12db",
        ("2/5", "3", "2", "csv"): "04aeca23d331f64d1cacdb14c1d30e277bd0d98af6e089c45027a6761ea44f3e",
        ("1/3", "3", "2", "csv"): "1bee1715f7f8cb12793dc955d333f38a05efbef296906b99264bdcc4259e1fcb",
        ("1/2", "2", "3", "csv"): "98487f971af6e752267159405c78f507575854e6f9d1c08b06bebff515a4ab19",
    }

    @pytest.mark.parametrize(("a", "Q", "m", "fmt"), sorted(GOLDEN_LARGE))
    def test_large_family_output_bytes_pinned(self, run, a, Q, m, fmt):
        code, out, _ = run("trees", "--a", a, "--Q", Q, "--m", m, "--kmax", "4", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_LARGE[(a, Q, m, fmt)]

    @pytest.fixture
    def spies(self, monkeypatch):
        """Record each call to the per-tree functions as (args, result), under
        every name the CLI could resolve them by."""
        calls = {name: [] for name in _PER_TREE}
        for name in _PER_TREE:
            original = getattr(trees, name)

            def spy(*args, _name=name, _original=original):
                result = _original(*args)
                calls[_name].append((args, result))
                return result

            for mod in (trees, cli):
                monkeypatch.setattr(mod, name, spy, raising=False)
        return calls

    def test_one_walk_per_tree_and_one_weight_per_histogram(self, run, spies, monkeypatch):
        results = []
        real = cli.tree_sum_check

        def spy(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(cli, "tree_sum_check", spy)
        code, out, _ = run("trees", "--a", "1/2", "--Q", "2", "--m", "2", "--kmax", "8")
        assert code == 0
        n_trees = int(out.splitlines()[0].split()[-2])
        assert n_trees == 20
        # no tree is built or walked; one weight per distinct histogram, on a
        # histogram the result hands out
        assert spies["enumerate_trees"] == []
        (result,) = results
        held = {id(hist) for hist, _ in result.tree_classes}
        weighed = [args[0] for args, _ in spies["tree_weight"]]
        assert all(id(hist) in held for hist in weighed)
        keys = [tuple(sorted(hist.items())) for hist in weighed]
        assert len(keys) == len(set(keys)) == 8
        assert set(keys) == {tuple(sorted(hist.items())) for hist, _ in result.tree_classes}
        for gone in (
            "guarded",
            "forest",
            "tree_height",
            "leaf_count",
            "internal_count",
            "weighted_trees",
            "check_tree_sum",
            "WeightedTree",
            "build_lower_bound_tree",
            "lower_bound_value",
            "upper_bound_report",
            "UpperBoundReport",
            "iter_nodes",
        ):
            assert not hasattr(trees, gone)

    def test_one_tree_sum_check_per_call(self, run, monkeypatch):
        calls = []
        real = cli.tree_sum_check

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "tree_sum_check", spy)
        code, _, _ = run("trees", "--a", "1/2", "--Q", "2", "--m", "2", "--kmax", "8")
        assert code == 0
        assert len(calls) == 1

    def test_a_recursion_off_by_one_exits_2_with_empty_stdout(self, run, monkeypatch):
        real = trees.run

        def off(a, n, kmax, engine):  # coefficient 3 of the recursion one too large
            state = real(a, n, kmax, engine)
            ds = list(state.poly.decimals)
            ds[3] += 1
            return dataclasses.replace(state, poly=DecimalPoly(tuple(ds), kmax))

        monkeypatch.setattr(trees, "run", off)
        code, out, err = run("trees", "--a", "1/2", "--Q", "2", "--m", "2", "--kmax", "8")
        assert (code, out) == (2, "")
        assert err == "verification failure: tree sum differs from recursion first at k=3: 294848 != 294849 (a=1/2, Q=2, m=2)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--Q", "3", "--m", "3", "--kmax", "4", "--budget", "100000"),  # about 2^107 trees
            ("--Q", "3", "--m", "12", "--kmax", "4"),
            ("--Q", "2", "--m", "2", "--kmax", "0"),  # refused by the recursion
        ],
    )
    def test_refused_before_any_tree_is_weighed(self, run, spies, argv):
        start = time.monotonic()
        code, out, _ = run("trees", "--a", "1/2", *argv)
        assert time.monotonic() - start < 2.0
        assert code == 3
        assert out == ""
        assert spies["tree_weight"] == []

    def test_negative_height_refused_before_any_step(self, run, monkeypatch):
        monkeypatch.setattr(trees, "run", lambda *args: pytest.fail("recursion ran"))
        code, out, err = run("trees", "--a", "1/2", "--Q", "2", "--m", "-1", "--kmax", "8")
        assert (code, out) == (3, "")
        assert err == "error: height must be >= 0\n"

    @pytest.mark.parametrize(("budget", "code"), [("20", 0), ("19", 3)])
    def test_budget_equal_to_the_count_is_admitted(self, run, budget, code):
        got, out, err = run(
            "trees", "--a", "1/2", "--Q", "2", "--m", "2", "--kmax", "4", "--budget", budget
        )
        assert got == code
        if code == 0:
            assert out.splitlines()[0] == "verdict: exact-match over 20 trees"
        else:
            assert out == ""
            assert err == "error: enumeration refused: at least 20 items, more than budget 19\n"

    def test_eleven_letter_windows_refused_before_they_are_composed(self):
        # composing the two 11-letter windows alone took 37 s; their supports
        # give the count, and the count refuses the family
        argv = ["trees", "--a", "1/2", "--Q", "11", "--m", "2", "--kmax", "4"]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "hannerfaces.cli", *argv], capture_output=True, text=True, env=env
        )
        assert time.monotonic() - start < 2.0
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: enumeration refused: at least 2**20389 items, more than budget 1000000\n"

    def test_refusal_of_a_huge_count_is_short(self, run):
        # the windows of a=1/2 at Q=10 have 497 degrees each, so the root
        # level counts more than 2^9172 trees: 2,762 digits in full
        code, out, err = run("trees", "--a", "1/2", "--Q", "10", "--m", "2", "--kmax", "4")
        assert (code, out) == (3, "")
        assert re.fullmatch(r"error: enumeration refused: at least 2\*\*\d+ items, more than budget \d+\n", err)
        assert len(err.encode()) < 200

    def test_budget_exceeded_exits_3(self, run):
        code, _, err = run(
            "trees", "--a", "1/2", "--Q", "2", "--m", "2", "--kmax", "4", "--budget", "3"
        )
        assert code == 3
        assert "more than budget 3" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_budget_refused_before_any_tree_or_step(self, run, monkeypatch, budget):
        calls = []
        for name in ("enumerate_trees", "window_support", "compose_window", "run"):
            monkeypatch.setattr(trees, name, lambda *args, _name=name: calls.append(_name))
        code, out, err = run(
            "trees", "--a", "1/2", "--Q", "2", "--m", "2", "--kmax", "4", "--budget", budget
        )
        assert (code, out) == (3, "")
        assert f"budget must be >= 1, got {budget}" in err
        assert calls == []


_PER_TREE = ("enumerate_trees", "tree_weight")


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

    # sha256 of the JSON stdout over the criterion-6 grid (k = floor(d^(1/2))
    # at d = Q*m), recorded while the certificate still built its tree.
    GOLDEN = {
        ("1/2", "2", "3", "8"): "c5184d63d363ff7daf10a0c3da1f60133811e3c422e9f2c7c266b9ca8ffcc201",
        ("1/2", "2", "4", "16"): "6fa3be87fed4c74103bf543c73557c515a3b6f3c1687d6b1e780ee2868d3300e",
        ("1/2", "2", "5", "32"): "810215d9ae0131b32ff74f0569485ceceef102132d61c8e54e284b2d41dfb621",
        ("1/2", "2", "6", "64"): "8ceb56e9d50b8574d7a4e746c5856841785aafeb0579d9b52674ed130d3a8778",
        ("1/2", "2", "7", "128"): "65d6eaa9d04a8dfa8c824aaae44674f19652efe0cb76c6f5b8690988f19963c4",
        ("1/2", "2", "8", "256"): "109a1d027268a9bcb67a994aec51fe50b2c18868d1b691217018da85c9f034bd",
        ("1/3", "3", "2", "8"): "334bda48a1047007203abff2717784e3d5dfbb5d808cfd2da17242f2a3e9500d",
        ("1/3", "3", "3", "22"): "c1b443de1cfb6af2d41b93272a183a3c5123ded88af03ce242742a849487daed",
        ("1/3", "3", "4", "64"): "6bca4b5f84ad18d0c76790c58564bc55a5be2517ab0a2bdf85fbfa95f3f028d4",
        ("1/3", "3", "5", "181"): "9a64cfd617b5b3f593c5aa16462e688a06f7272b0a286b5c88d4ddc622b835ea",
    }

    @pytest.mark.parametrize(("a", "Q", "m", "k"), sorted(GOLDEN))
    def test_output_bytes_pinned(self, run, a, Q, m, k):
        code, out, err = run("lower-bound", "--a", a, "--Q", Q, "--m", m, "--k", k, "--format", "json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[(a, Q, m, k)]

    # sha256 of stdout off the criterion-6 grid, recorded while the certificate
    # still built the weight W(T_m): the log engine (k > 1024), CSV output, and
    # Q = 5 with no top vertex (h = 0) and with one (h = 1).
    GOLDEN_OFF_GRID = {
        ("--a", "1/2", "--Q", "2", "--m", "5", "--k", "1025"):
            "b733dbd2749cc13521c129af315fdc83a34aa8315cfcc9ecdfbf7289b3cc8b1f",
        ("--a", "1/3", "--Q", "3", "--m", "4", "--k", "64", "--format", "csv"):
            "4ce8c7a2cb9c0955c4b59f93b83e50a3784c50088aaa62c246e115fe0e878a6b",
        ("--a", "2/5", "--Q", "5", "--m", "2", "--k", "32"):
            "fa068323027bce3e143efbd9d1bbe32f9e75f52ee507728eff284097728b55db",
        ("--a", "2/5", "--Q", "5", "--m", "2", "--k", "704"):
            "585b9b0514ca83b83c31b9a46071d22251c8faebf98e0c1f7580efaab5f48b5a",
    }

    @pytest.mark.parametrize("argv", sorted(GOLDEN_OFF_GRID))
    def test_off_grid_output_bytes_pinned(self, run, argv):
        code, out, err = run("lower-bound", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_OFF_GRID[argv]

    def test_certifies_where_the_weight_was_refused(self, run):
        # The weight W(T_m) here would hold 710.6 Mbit; the certificate reads
        # its one coefficient in closed form, so the input certifies.
        start = time.monotonic()
        code, out, err = run("lower-bound", "--a", "1/2", "--Q", "2", "--m", "13", "--k", "8192")
        assert time.monotonic() - start < 2.0
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["L_gt_2k"] and data["certified_chain"] and data["bound_holds"]

    def test_zero_windows_refused_by_name(self, run, monkeypatch):
        monkeypatch.setattr(trees, "window_profile", lambda *args: pytest.fail("window profiled"))
        code, out, err = run("lower-bound", "--a", "1/2", "--Q", "2", "--m", "0", "--k", "8")
        assert (code, out) == (3, "")
        assert err == "error: the lower-bound tree needs m >= 1 windows, got m=0\n"

    def test_negative_windows_refused_by_name_before_the_engine(self, run, monkeypatch):
        monkeypatch.setattr(cli, "log2_face_number", lambda *args: pytest.fail("engine ran"))
        code, out, err = run("lower-bound", "--a", "1/2", "--Q", "2", "--m", "-1", "--k", "8")
        assert (code, out) == (3, "")
        assert err == "error: the lower-bound tree needs m >= 1 windows, got m=-1\n"

    def test_oversize_engine_run_refused_before_the_certificate(self, run, monkeypatch):
        # the engine run is sized, and refused, before any part of the certificate runs
        monkeypatch.setattr(cli, "lower_bound_certificate", lambda *args: pytest.fail("certificate built"))
        code, out, err = run("lower-bound", "--a", "1/2", "--Q", "2", "--m", "24", "--k", "8")
        assert code == 3
        assert out == ""
        assert "Mbit" in err


class TestEnginePolicy:
    """lower-bound reads a_{n,k} from the exact engine up to k = 1024 and from
    the log engine above it, at truncation bound k."""

    @pytest.mark.parametrize(("k", "engine"), [(1024, Engine.PAPER_EXACT), (1025, Engine.PAPER_LOG)])
    def test_boundary(self, run, monkeypatch, k, engine):
        # The exact engine steps to n=9 and reads coefficient k of step 10 alone;
        # the closed form admits it, so no log step sizes it.  The log engine
        # takes all 10 steps.
        stepped = []
        real_step = recursion.step

        def spy(state, kind):
            stepped.append((state.n, state.kmax, state.engine))
            return real_step(state, kind)

        monkeypatch.setattr(recursion, "step", spy)
        code, out, _ = run("lower-bound", "--a", "1/2", "--Q", "2", "--m", "5", "--k", str(k))
        assert code == 0
        assert stepped == [(n, k, engine) for n in range(10 if engine.is_log else 9)]
        want = recursion.run(DensityParam.rational(1, 2), 10, k, engine).poly.log2(k)
        assert json.loads(out)["engine_log2"] == format(want, ".17g")


class TestRefusedUpFront:
    """Inputs whose state or output would take minutes are refused before any
    exact-engine step: exit 3, nothing on stdout, well under 2 s."""

    @pytest.mark.parametrize(
        ("argv", "reason"),
        [
            (("asymptotics", "--a", "1/2", "--delta", "1/4", "--nmax", "40", "--engine", "paper"), "Mbit"),
            (("fvector", "--a", "1/2", "--n", "60", "--kmax", "4", "--engine", "paper"), "Mbit"),
            (("lower-bound", "--a", "1/2", "--Q", "2", "--m", "24", "--k", "8"), "Mbit"),
            (("fvector", "--a", "1/2", "--n", "49", "--kmax", "1", "--engine", "paper"), "Mbit"),
            (("phi", "--a", "1/2", "--Q", "12", "--m", "0"), "feasibility cap 11"),
            (("asymptotics", "--a", "1/2", "--delta", "1/2", "--nmax", "21", "--engine", "paper"), "Mbit"),
        ],
    )
    def test_exits_3_without_an_exact_step(self, run, monkeypatch, argv, reason):
        engines = []
        real_step = recursion.step

        def spy(state, kind):
            engines.append(state.engine)
            return real_step(state, kind)

        monkeypatch.setattr(recursion, "step", spy)
        start = time.monotonic()
        code, out, err = run(*argv)
        assert time.monotonic() - start < 2.0
        assert code == 3
        assert out == ""
        assert reason in err
        assert engines == []  # sized from the step formula: no engine steps

    def test_refusal_names_the_requested_engine(self, run):
        # K = 2^21: the refusal names the engine asked for and the state at n_max
        argv = ("asymptotics", "--a", "1/2", "--delta", "1/2", "--nmax", "42", "--engine", "paper")
        code, out, err = run(*argv)
        assert (code, out) == (3, "")
        assert "the paper engine state at n=42, K=2097152 is predicted to hold" in err
        assert "cannot be sized" not in err

    def test_no_log_step_past_the_closed_form(self, run, monkeypatch):
        log_work = []
        real_step, real_convolve = recursion.step, _kernels.log_convolve

        def spy(state, kind):
            if state.engine.is_log:
                log_work.append(state.n)
            return real_step(state, kind)

        monkeypatch.setattr(recursion, "step", spy)
        monkeypatch.setattr(_kernels, "log_convolve", lambda f, g: log_work.append(f) or real_convolve(f, g))
        # 65 * 2^13 bits bound every state: admitted at r = 1
        code, _, _ = run("fvector", "--a", "1/2", "--n", "12", "--kmax", "64", "--engine", "paper")
        assert code == 0
        # 1025 * 2^21 bits is over the ceiling: the bound's search admits the run
        states = recursion.trajectory(DensityParam.rational(1, 2), 20, 1024, Engine.PAPER_EXACT)
        assert next(states).n == 0
        assert log_work == []

    @pytest.mark.parametrize(
        ("argv", "named"),
        [
            (("fvector", "--a", "1/2", "--n", "100000", "--kmax", "1", "--engine", "paper"),
             "the paper engine state at n=100000, K=1 is predicted to hold inf Mbit"),
            (("fvector", "--a", "1/2", "--n", "100000", "--kmax", "1", "--engine", "log"),
             "the log engine state at n=100000, K=1 is predicted to leave the log engine's range"),
            (("asymptotics", "--a", "1/2", "--delta", "1/2000", "--nmax", "15000", "--engine", "log"),
             "the log engine state at n=15000, K=181 is predicted to leave the log engine's range"),
            # K + 1 values of 64 bits each in every engine: K = 2^21 is one over.  A log
            # state holds them; an exact one stops at 2^(n+1) slots, and the values read
            # out are named
            *(
                (("fvector", "--a", "1/2", "--n", "3", "--kmax", "2097152", "--engine", engine),
                 f"the {engine} engine state at n=3, K=2097152 fits, but the 2,097,153 values read out of "
                 "it at 64 bits each hold 134.2 Mbit, over the 134.2 Mbit allowed (134,217,792 > 134,217,728 bits)\n")
                for engine in ("paper", "geometric")
            ),
            (("fvector", "--a", "1/2", "--n", "3", "--kmax", "2097152", "--engine", "log"),
             "the log engine state at n=3, K=2097152 is predicted to hold 134.2 Mbit, "
             "over the 134.2 Mbit allowed (134,217,792 > 134,217,728 bits)\n"),
            # 30M values read out of a state of 4 small coefficients
            (("fvector", "--a", "1/2", "--n", "1", "--kmax", "30000000", "--engine", "paper"),
             "the paper engine state at n=1, K=30000000 fits, but the 30,000,001 values read out of it "
             "at 64 bits each hold 1920.0 Mbit"),
            (("trees", "--a", "1/2", "--Q", "1", "--m", "1", "--kmax", "30000000"),
             "the paper engine state at n=1, K=30000000 fits, but the 30,000,001 values read out of it "
             "at 64 bits each hold 1920.0 Mbit"),
        ],
    )
    def test_absurd_sizes_refused_cleanly(self, run, monkeypatch, argv, named):
        steps = []
        monkeypatch.setattr(recursion, "step", lambda state, kind: steps.append(state))
        start = time.monotonic()
        code, out, err = run(*argv)
        assert time.monotonic() - start < 1.0
        assert (code, out, steps) == (3, "", [])
        assert err.startswith(f"error: {named}") and "Traceback" not in err

    def test_log_run_past_the_range_refused_before_its_first_step(self, run, monkeypatch):
        steps = []
        monkeypatch.setattr(recursion, "step", lambda state, kind: steps.append(state))
        code, out, err = run("fvector", "--a", "1/2", "--n", "120", "--kmax", "4", "--engine", "log")
        assert (code, out, steps) == (3, "", [])
        assert "the log engine state at n=120, K=4 is predicted to leave the log engine's range" in err

    @pytest.mark.parametrize("engine", ["paper", "geometric", "log"])
    @pytest.mark.parametrize("kmax", ["-1", "-5"])
    def test_kmax_below_one_refused_before_it_is_sized(self, run, monkeypatch, engine, kmax):
        monkeypatch.setattr(recursion, "widest_log2_bound", lambda *args: pytest.fail("sized"))
        code, out, err = run("fvector", "--a", "1/2", "--n", "3", "--kmax", kmax, "--engine", engine)
        assert (code, out) == (3, "")
        assert err == f"error: kmax must be >= 1, got {kmax}\n"

    def test_log_fvector_is_bounded_by_its_state_alone(self, run):
        # no limit of its own on K: 70,001 rows, past 2^16
        code, out, _ = run("fvector", "--a", "1/2", "--n", "2", "--kmax", "70000", "--engine", "log")
        assert code == 0
        assert len(out.splitlines()) == 70002

    @pytest.mark.parametrize(
        "density",
        [("--a", "1/9"), ("--a-real", "0.6180339887498948482045868343656381177:128")],
        ids=["n=0-mod-9", "irrational"],
    )
    def test_flm_report_too_short_to_fit_refused_before_the_scan(self, run, monkeypatch, density):
        # fit rows: n = 9, 18, 27 up to 35 for a = 1/9, and n = 1, 2, 3 for an irrational a
        nmax = "35" if density[0] == "--a" else "3"
        monkeypatch.setattr(cli, "scan", lambda *args: pytest.fail("scanned"))
        code, out, err = run("flm-report", *density, "--delta", "1/2", "--nmax", nmax, "--engine", "log")
        assert (code, out, err) == (3, "", "error: need at least 4 distinct usable n to fit, have 3\n")

    def test_trees_kmax_refused_before_any_window_is_composed(self, run, monkeypatch):
        monkeypatch.setattr(trees, "compose_window", lambda word: pytest.fail("composed"))
        code, out, err = run("trees", "--a", "1/2", "--Q", "11", "--m", "1", "--kmax", "0")
        assert (code, out, err) == (3, "", "error: kmax must be >= 1, got 0\n")

    def test_fvector_negative_n_refused_before_any_step(self, run, monkeypatch):
        steps = []
        monkeypatch.setattr(recursion, "step", lambda state, kind: steps.append(state))
        code, out, err = run("fvector", "--a", "1/2", "--n", "-1", "--kmax", "4")
        assert (code, out) == (3, "")
        assert "step count must be >= 0" in err
        assert steps == []


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

    def test_csv_file_with_json_format_is_refused(self, run, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "scan", lambda *args: pytest.fail("scan ran"))
        path = tmp_path / "rows.csv"
        argv = ("--delta", "1/2", "--nmax", "3", "--csv", str(path), "--format", "json")
        code, out, err = run("asymptotics", "--a", "1/2", *argv)
        assert (code, out) == (3, "")
        assert err == "error: --csv writes CSV; give --format csv or leave --csv out\n"
        assert not path.exists()

    @pytest.mark.parametrize("target", ["missing/rows.csv", "."], ids=["no-directory", "a-directory"])
    def test_unwritable_csv_path_is_a_usage_error(self, run, tmp_path, target):
        path = tmp_path / target
        code, out, err = run("asymptotics", "--a", "1/2", "--delta", "1/2", "--nmax", "4", "--csv", str(path))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot write {path}: ")

    def test_bad_delta(self, run):
        code, _, err = run("asymptotics", "--a", "1/2", "--delta", "3/2", "--nmax", "4")
        assert code == 3

    def test_d_column_past_the_int_digit_limit(self, run, monkeypatch):
        # 2**14286 is the first power of two over CPython's default limit of
        # 4300 digits for int -> str; the rows print d anyway, and the CLI
        # leaves the caller's limit as it found it.
        ns = [0, 1, 14285, 14286, 14300]
        rows = [ScanRow(n, 1, 1, n, 0, 0.0, 0.0, "log") for n in ns]
        monkeypatch.setattr(cli, "_scan", lambda args: (None, None, rows))
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, _ = run("asymptotics", "--a", "1/2", "--delta", "1/2", "--nmax", "0")
            limit_after = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            expected = [str(2**n) for n in ns]
        finally:
            sys.set_int_max_str_digits(old)
        assert (code, limit_after) == (0, 4300)
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == expected

    @pytest.mark.parametrize("command", ["asymptotics", "flm-report"])
    def test_negative_nmax_is_a_step_count_error(self, run, monkeypatch, command):
        scans = []
        monkeypatch.setattr(cli, "scan", lambda *args: scans.append(args))
        code, out, err = run(command, "--a", "1/2", "--delta", "1/2", "--nmax", "-1")
        assert (code, out) == (3, "")
        assert "step count must be >= 0, got -1" in err
        assert scans == []

    def test_log_scan_past_k_8192_bytes_pinned(self, run):
        # sha256 of stdout, recorded with the 8192 cap on k lifted and the
        # kernel as it was then: rows past n=26 print the parent kernel's bytes.
        code, out, _ = run(
            "asymptotics", "--a", "1/2", "--delta", "1/2", "--nmax", "28", "--engine", "log"
        )
        assert code == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "4517dad291d1acc5e8cc4d9faf7a2b043d33df3f91782c477271ffd17faff793"
        )

    def test_log_scan_to_k_8192_bytes_pinned(self, run):
        # sha256 of stdout, recorded before the banded square bisected its
        # blocks in lockstep.
        code, out, _ = run(
            "asymptotics", "--a", "1/2", "--delta", "1/2", "--nmax", "26", "--engine", "log"
        )
        assert code == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "9796f1df57a770cfd12ad9fc1af86eeb885492aacccf7e2190836003f1a8e33f"
        )


    # sha256 of stdout, recorded before the last step was read by coefficient
    # and before the closed form admitted exact runs without a log pass.
    GOLDEN_EXACT = {
        ("1/3", "16", "paper"): "54a2391685edb1f0635eaf9c83154d31a5b5cf7d2bf185c12f755afc02fae1e4",
        ("1/2", "12", "geometric"): "a21ecf046ebca0dc2910cfb7f64bc55764e414d1147825bc58794b4fdedb40c3",
    }

    @pytest.mark.parametrize(("a", "nmax", "engine"), sorted(GOLDEN_EXACT))
    def test_exact_scan_bytes_pinned(self, run, a, nmax, engine):
        argv = ("--delta", "1/2", "--nmax", nmax, "--engine", engine)
        code, out, _ = run("asymptotics", "--a", a, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_EXACT[(a, nmax, engine)]


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
        monkeypatch.setattr(geometry, "proper_f_vector", lambda a, n: [8, 24, 32, 17])
        code, out, _ = run("oracle", "--a", "1/2", "--n", "2")
        assert code == 2
        assert json.loads(out)["crosscheck_failures"] == [
            "lattice f-vector disagrees with geometric engine"
        ]

    def test_negative_n_is_a_step_count_error(self, run):
        code, out, err = run("oracle", "--a", "1/2", "--n", "-1")
        assert (code, out) == (3, "")
        assert err == "error: step count must be >= 0, got -1\n"

    def test_n4_skips_lattice(self, run):
        code, out, _ = run("oracle", "--a", "2/5", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["face_total"] is None
        assert data["ratio_sq"] == "16"

    def test_full_lattice_help_follows_the_face_guard(self, capsys, monkeypatch):
        # the cached parser keeps the help of the guard it was built under, so
        # each help here comes from a parser built for it, and none is cached
        cached = cli.build_parser
        before = cached.cache_info()
        monkeypatch.setattr(cli, "build_parser", cached.__wrapped__)

        def help_text():
            with pytest.raises(SystemExit):
                main(["oracle", "--help"])
            return " ".join(capsys.readouterr().out.split())

        rule = "always built at n <= {}, and at n >= {} its 3^(2^n) faces exceed the {}-face guard"
        assert rule.format(3, 4, "10^5") in help_text()
        monkeypatch.setattr(geometry, "_LATTICE_FACE_GUARD", 80)  # 3^2 <= 80 < 3^4
        assert rule.format(1, 2, "80") in help_text()
        assert cached.cache_info() == before

    # sha256 of stdout, recorded while the incidences were read by one Python
    # dot product per vertex-facet pair.  At n=3 the words are PHP (1/2), PHH
    # (1/3), PPH (2/3) and PPP (3/4); at n=4, a=1/4 and a=4/5 build the
    # largest polytopes (32 x 65,536 and 65,536 x 32) and no lattice.  Every
    # call exited 0.  The CSV ones were recorded again once the object CSV
    # quoted its nested cells, which alone changed.
    GOLDEN = {
        ("1/2", "0", "json"): "8ce709028c4dbc7b6ac9ed09bd9f21d1db9f6e667edba3fc243662eebd53fcd6",
        ("1/2", "0", "csv"): "f7c5cddbc50c214593a6d0dc35b2b4ffd556e21410d4a6da9b2e71301097105f",
        ("1/2", "1", "json"): "dca72379a827f6fa7bfb7f1a5c73c587681a42c138ec88e291339538d2f3097e",
        ("1/2", "1", "csv"): "d81a235efdec56e8ae9c579d35ccdb3d4e5d5c0505643dbba7e24d103daebee3",
        ("1/2", "2", "json"): "3e820e159be9435eb10738bc858de24b6b16f354692957047cb2ef548a3b8cda",
        ("1/2", "2", "csv"): "4da0f928fd0df58b54de825285ed34b775a522a325436b8484290d24cd6e8193",
        ("1/2", "3", "json"): "63d2171a7f9da08e1a87055a0c0dcbc53eedfa53223037f325d1a63a4b1b8294",
        ("1/2", "3", "csv"): "15c36e60bf3aa40a936a49b717c946a89d7c4c43365b9f15f7d38fc7768b6e5e",
        ("1/3", "0", "json"): "bd530c2f70909ef816454c9b117f51024904dab8e0491aa41bfcb83d2c42b8da",
        ("1/3", "0", "csv"): "cbf0100f6aede6399e439964519d89508d1771207444144bb958803e0292119c",
        ("1/3", "1", "json"): "f1021ec84cf9c898c4afc0de8278c1a79a8ac880c350e085f5a4f1e3ecf82cb3",
        ("1/3", "1", "csv"): "9e3fb5fa1648816196eedacc4158a4f6d1ea3e95114ca16d500522958d82d03e",
        ("1/3", "2", "json"): "6e1ab7350e6b0d18e839a234d5b42400e285e3c4c957de27aea40cc30797aaa7",
        ("1/3", "2", "csv"): "44992aad5d8c904bf0d692019d134d4b083657b19a8fda8d37351b6e42bb28f7",
        ("1/3", "3", "json"): "a223eb707e6fef717e3510fc3b0d66d343cc611b94aa190e2eeb0951d6dcf8e4",
        ("1/3", "3", "csv"): "0b780dd306d71c2d5aacab508615235e81c66c00d83342d39c961e99d2d42262",
        ("2/3", "0", "json"): "4420a4ac68341338c277c868cfe71106498e0d417b04c7083e13fbca5b12bfff",
        ("2/3", "0", "csv"): "4105de72e988443cf5c53b37013c4fcc4e3eec389dc8b427e425226bac32a501",
        ("2/3", "1", "json"): "23f4d93d782eb342e6923a1802ab3bfa7bc69ce7ceef83ed7c85536229f01940",
        ("2/3", "1", "csv"): "166462cf989a2047d89e09c4420634c0210a98c96065fe1665664fc8e7e98adf",
        ("2/3", "2", "json"): "798bcd611744cd6659cea5817b080846d40538665e7ff4034724957fc43f7709",
        ("2/3", "2", "csv"): "37d41369d09662888efd09f9e6a4480fbaa1ce1cb41b49b36ef0f8da6a2d6472",
        ("2/3", "3", "json"): "d47ed424e5f2ffcc4f6b855c696fd2abe3a4c5da7a5e3175c50c35ab22bd3576",
        ("2/3", "3", "csv"): "d358757d7c0253aeaaf18361b408ceaeb2b3636eb0278ea9327a0e51a8a41d80",
        ("3/4", "0", "json"): "970b3cf6830ba4801ca452180d1c831b30e30d5322a1b7443258d9e9d4d5186f",
        ("3/4", "0", "csv"): "9378b532d45789372cdabc5700417c3f0ae99068e754c1c0e21c2f5e36f4e344",
        ("3/4", "1", "json"): "88bbe53c5e5e2f38b52aebd5b3224d5cba7800a9b21128b3af97fd14bb86e632",
        ("3/4", "1", "csv"): "630290a696a512243bbabb515659f4abc3ab25ff87d9532e0a8af39238721bb3",
        ("3/4", "2", "json"): "9b71b456b9e4f65ea056e93ceb410a6ceeda9ae259686c4882ef35252faefa0a",
        ("3/4", "2", "csv"): "927da4fb8178ceb268218c58727b6c70c9cdcf7eac0d2ebe0a2a405b602714f3",
        ("3/4", "3", "json"): "39d523ebaca6c3ab045d314cc615cd60369ed5f14d6dca5c878bb7e67d9b3fbd",
        ("3/4", "3", "csv"): "aa8d21f14f5b96b894c950d970d6767d1ee50cdb64a682f20f39fa78612768cb",
        ("1/4", "4", "json"): "4d4cdf6ad224eab2eb2da94c1c59208c260176757fb08c581559ab53985130c6",
        ("1/4", "4", "csv"): "00c4bcc245ee3c592567b7bc22e65abb8f672d8c3bd86e855472fa554aedc4bf",
        ("4/5", "4", "json"): "04d4396301cdaa531a554d845c6e87ac0b38a94964ef23037b8ed3ae047b8731",
        ("4/5", "4", "csv"): "467b307b9678e78a27f39fdaf99e64857e26b3f39fbb1577674318ba552dc984",
    }

    @pytest.mark.parametrize(("a", "n", "fmt"), sorted(GOLDEN))
    def test_output_bytes_pinned(self, run, a, n, fmt):
        lattice = ("--full-lattice",) if n == "3" else ()
        code, out, err = run("oracle", "--a", a, "--n", n, *lattice, "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[(a, n, fmt)]


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

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_fit_tol_must_be_a_tolerance(self, run, monkeypatch, tol):
        scans = []
        monkeypatch.setattr(cli, "scan", lambda *args: scans.append(args))
        argv = ("flm-report", "--a", "1/2", "--delta", "1/2", "--nmax", "12", "--fit-tol", tol)
        code, out, err = run(*argv)
        assert (code, out) == (3, "")
        assert "--fit-tol must be a finite number >= 0" in err
        assert scans == []

    # sha256 of stdout, recorded before the banded square bisected its blocks
    # in lockstep: every published log row must keep its bits.
    GOLDEN_LOG = {
        "1/3": "984b4925554b1920486b52364a660e35452cae0b33d3863180b2d6d8e2a24173",
        "2/5": "97189f150f8458974a8a96a24fc96d161b594ed7029e1031c6fa6815cfa99d38",
        "1/4": "143cced5961676cd9409257098b2f24463dcf520304857533ffddf9c4353a60c",
        "3/5": "1f8e8c7bf76ca90fa03ed1decca18a0e0c5f0df1928230d2ec462784949755d9",
    }

    @pytest.mark.parametrize("a", sorted(GOLDEN_LOG))
    def test_log_report_bytes_pinned(self, run, a):
        code, out, _ = run("flm-report", "--a", a, "--delta", "1/2", "--nmax", "24", "--engine", "log")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_LOG[a]

    def test_exact_report_bytes_pinned(self, run):
        # recorded before the last step was read by coefficient
        code, out, _ = run("flm-report", "--a", "1/3", "--delta", "1/2", "--nmax", "15", "--engine", "paper")
        assert code == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "cfdc1d61b42ff70d359c175d51f3c144f6a5286bed445ec28a258f51d4932fbe"
        )

    def test_irrational_report_bytes_pinned(self, run):
        golden = "0.6180339887498948482045868343656381177:128"
        code, out, _ = run("flm-report", "--a-real", golden, "--delta", "1/2", "--nmax", "22")
        assert code == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "2f87b67f9ec796e471ed8f808f63205c28cad698153fe6742a2b2eefbf090da8"
        )


class TestPlumbing:
    def test_unknown_flag_exits_3(self, run):
        code, _, err = run("schedule", "--a", "1/2", "--steps", "2", "--frobnicate")
        assert code == 3

    def test_unknown_subcommand_exits_3(self, run):
        code, _, _ = run("transmogrify")
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("fvector", "--a", "1/2", "--n", "120", "--kmax", "4", "--engine", "log"),
            ("asymptotics", "--a", "1/2", "--delta", "1/100", "--nmax", "120", "--engine", "log"),
        ],
    )
    def test_log_range_overflow_exits_3(self, run, argv):
        code, out, err = run(*argv)
        assert code == 3
        assert out == ""
        assert "log engine's range" in err

    def test_every_engine_list_is_engines(self):
        names = [e.value for e in Engine]
        subs = next(x for x in cli.build_parser()._actions if isinstance(x, argparse._SubParsersAction))
        lists = [
            list(action.choices)
            for sub in subs.choices.values()
            for action in sub._actions
            if "--engine" in action.option_strings
        ]
        assert lists == [names] * 3
        with pytest.raises(cli.UsageError) as info:
            Engine.parse("bogus")
        assert str(info.value) == f"unknown engine 'bogus' (use {'|'.join(names)})"

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

    def test_config_equals_form_applies_the_file(self, run, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("a=1/3\nformat=json\n")
        spaced = run("--config", str(cfg), "schedule", "--steps", "2")
        assert spaced[0] == 0
        assert json.loads(spaced[1]) == [{"n": "0", "kind": "P"}, {"n": "1", "kind": "H"}]
        assert run(f"--config={cfg}", "schedule", "--steps", "2") == spaced

    @pytest.mark.parametrize(
        "spelling", [lambda path: ["--conf", path], lambda path: [f"--conf={path}"]], ids=["spaced", "equals"]
    )
    def test_abbreviated_config_is_refused(self, run, tmp_path, spelling):
        # main applies only a --config that is spelled out; any other is refused, not ignored
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("format=json\n")
        code, out, _ = run(*spelling(str(cfg)), "schedule", "--a", "1/2", "--steps", "2")
        assert (code, out) == (3, "")

    def test_missing_config(self, run):
        code, _, err = run("--config", "/nonexistent.cfg", "schedule", "--steps", "1")
        assert code == 3


def _fresh(*argv):
    """(exit code, stdout, stderr) of ``argv`` run by a fresh interpreter, at 80 columns."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-m", "hannerfaces.cli", *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    """One parser serves every ``main`` call of a process, and a call prints
    what it prints in a fresh interpreter whatever ran before it."""

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage and help are wrapped to the terminal

    def test_three_calls_build_one_parser_tree(self, run, monkeypatch):
        built = []
        real_init = cli._Parser.__init__

        def init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", init)
        cli.build_parser.cache_clear()
        for argv in (("schedule", "--a", "1/2", "--steps", "2"), ("phi", "--word", "SR"), ("transmogrify",)):
            run(*argv)
        assert len(built) == 10  # the program and its 9 subcommands, once
        assert cli.build_parser.cache_info()[:2] == (2, 1)  # (hits, misses)

    def test_a_config_leaves_no_default_behind(self, run, tmp_path):
        cfg = tmp_path / "log.cfg"
        cfg.write_text("engine=log\nformat=json\n")
        argv = ("fvector", "--a", "1/2", "--n", "3", "--kmax", "4")
        with_config = run(f"--config={cfg}", *argv)
        assert with_config == _fresh(f"--config={cfg}", *argv)
        assert with_config[1].startswith("[")
        assert run(*argv) == _fresh(*argv) == (0, "k,coefficient\n0,64\n1,384\n2,1120\n3,2016\n4,2436\n", "")

    @pytest.mark.parametrize(
        "refused",
        [
            ("fvector", "--a", "1/2", "--n", "3", "--kmax", "4", "--engine", "bogus"),
            ("fvector", "--a", "1/2", "--n", "3"),
            ("schedule", "--a", "1/2", "--steps", "2", "--frobnicate"),
            ("fvector", "--a", "1/2", "--n", "3", "--kmax", "0"),
        ],
        ids=["choice", "required", "unknown", "precondition"],
    )
    def test_a_refusal_leaves_the_next_call_as_it_was(self, run, refused):
        valid = ("fvector", "--a", "1/2", "--n", "3", "--kmax", "4", "--format", "json")
        code, out, err = run(*refused)
        assert (code, out) == (3, "") and err.startswith(("usage: hannerfaces", "error: "))
        assert (code, out, err) == _fresh(*refused)
        assert run(*valid) == _fresh(*valid)

    # sha256 of --help at 80 columns, recorded while a parser was built per call
    HELP = {
        (): "2a4b87bd5b0d46ce0cb96a00fc16088a35c493297ea7f06be17c0ced8753791c",
        ("schedule",): "84007dd11471482b4e87b0c5c9c181369c1092a8820d44dad500e5aaa1248751",
        ("fvector",): "410247ab06078f6f708f521c4431b80710ffbbb93ead672e9f9453b2f432edf8",
        ("phi",): "7d37ccc0987892383403a043551d1d4694963d247b59abc03bc8220856f091b2",
        ("trees",): "bef5b29290b17db710e074e37358e6fd65b759d57d838201509eb35dad023bd8",
        ("lower-bound",): "8fc7856e8aba7c68bd118c24e910239a244c8a4b04eefdb09a4e685a9b863e5e",
        ("asymptotics",): "e9aa7e25368ffdaeeec65c24a15d55ee28858a55280b90d23b9760bff7ed1d51",
        ("oracle",): "b89f8d26749d068673557f6a65d661aeace12599108a2a95a2a096323a1c0ba3",
        ("flm-report",): "8d9301c56e63c1dcffe0cdb517a9df853c0eb79a940120c264eb70f4c465ee52",
        ("selftest",): "add9b0086d8d231dbd0c740e5cc2acc1f4faa2d5f73a7a062605934f0e745ca0",
    }

    @pytest.mark.parametrize("command", list(HELP), ids=lambda c: c[0] if c else "program")
    def test_help_twice_in_one_process_keeps_its_bytes(self, capsys, command):
        for _ in range(2):
            with pytest.raises(SystemExit) as exited:
                main([*command, "--help"])
            out = capsys.readouterr().out
            assert exited.value.code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == self.HELP[command]


class TestClosedStdout:
    @pytest.mark.parametrize(
        ("argv", "wanted"),
        [
            # 1.69 MB of rows: a write meets the closed pipe mid-table
            (("fvector", "--a", "1/2", "--n", "4", "--kmax", "200000"), b"k,coeffici"),
            # a few bytes, still buffered when the pipe is found closed
            (("schedule", "--a", "1/2", "--steps", "3"), b""),
        ],
        ids=["mid-table", "buffered"],
    )
    def test_a_reader_that_leaves_early_gets_exit_141_and_no_report(self, argv, wanted):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        with subprocess.Popen(
            [sys.executable, "-m", "hannerfaces.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            head = proc.stdout.read(len(wanted))
            proc.stdout.close()
            err = proc.stderr.read()
        assert head == wanted
        assert (proc.returncode, err) == (cli.EXIT_BROKEN_PIPE, b"")
        assert cli.EXIT_BROKEN_PIPE == 141  # 128 + SIGPIPE, as a shell reports a writer its reader left


class TestSelftest:
    def test_one_ok_line_per_entry(self, run, monkeypatch):
        # passing stubs under the real names; tests/test_acceptance.py runs the real checks
        names = [name for name, _ in selftest.CHECKS]
        monkeypatch.setattr(selftest, "CHECKS", [(name, lambda: "detail") for name in names])
        code, out, _ = run("selftest")
        assert code == 0
        # stdout equals a text fixed by the table's names alone, so any two
        # runs print identical bytes
        want = "".join(f"ok   {name}\n" for name in names) + "all checks passed\n"
        assert out == want

    def test_failing_entry_exits_2_and_the_rest_still_run(self, run, monkeypatch):
        names = [name for name, _ in selftest.CHECKS]
        ran = []
        table = [(name, lambda name=name: ran.append(name)) for name in names]
        table[1] = (names[1], lambda: 1 / 0)
        monkeypatch.setattr(selftest, "CHECKS", table)
        code, out, _ = run("selftest")
        assert code == 2
        lines = out.splitlines()
        assert lines[1] == f"FAIL {names[1]}: division by zero"
        assert lines[-1] == "SELFTEST FAILED"
        assert ran == names[:1] + names[2:]

    def test_table_holds_each_criterion_once(self):
        names = [name for name, _ in selftest.CHECKS]
        assert len(set(names)) == len(names)
        criteria = [int(m.group(1)) for m in map(re.compile(r"criterion_(\d+)_").match, names) if m]
        assert sorted(criteria) == list(range(1, 12))
