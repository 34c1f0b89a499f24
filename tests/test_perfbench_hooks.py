"""The benchmark's span hooks name functions that exist, the tree check
runs under exactly one span, and every CLI call the benchmark makes still
parses.  ``perfbench/spans.py`` and ``perfbench/workloads.py`` are loaded by
path and only read."""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from hannerfaces import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        for name in ("oracles", "workloads"):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            # workloads.py imports ``oracles`` by this name, and its dataclass
            # looks its own module up in sys.modules
            patch.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
        yield module


def test_every_layer_names_an_existing_function(spans):
    for mod_name, fn_name, _ in spans.LAYERS:
        module = importlib.import_module(f"hannerfaces.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_trees_runs_one_sum_check_span(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["trees", "--a", "1/2", "--Q", "2", "--m", "2", "--kmax", "8"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert out.getvalue().splitlines()[0] == "verdict: exact-match over 20 trees"
    sum_check = tracer.names.index("trees.sum_check")
    assert list(tracer.name).count(sum_check) == 1
    assert tracer.counts["trees.enumerated"] == 0  # the tree sum builds no tree


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_benchmark_call_parses(workloads, seed):
    parser = cli.build_parser()
    argvs = [task.argv for name in workloads.WORKLOADS for task in workloads.build(name, seed)]
    for argv in [*argvs, workloads.TREES_JSON_PROBE]:
        parser.parse_args(argv)  # raises UsageError on a flag the CLI no longer takes
    assert ("oracle", "--a", "1/2", "--n", "3", "--full-lattice") in argvs
