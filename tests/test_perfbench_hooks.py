"""The benchmark's span hooks name functions that exist, the tree check
runs under exactly one span, every CLI call the benchmark makes still
parses, and every kernel name ``perfbench/run.py`` reads exists and runs.
``perfbench/spans.py`` and ``perfbench/workloads.py`` are loaded by path and
only read; ``perfbench/run.py`` is only parsed."""

import ast
import contextlib
import importlib
import importlib.util
import io
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from hannerfaces import _kernels, cli

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


def test_every_kernel_name_run_reads_exists_and_runs():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "_kernels"
    }
    assert read >= {"ACTIVE_KERNEL", "log_convolve", "convolve_exact", "convolve_schoolbook"}
    assert [name for name in sorted(read) if not hasattr(_kernels, name)] == []
    # the calls of ``micro_rows``, at K = 8
    gen = np.random.default_rng(0)
    f, g = gen.uniform(0, 1000, 8), gen.uniform(0, 1000, 8)
    assert np.isfinite(_kernels.log_convolve(f, g)).all()
    rng = random.Random(0)
    ints = [rng.getrandbits(4096) for _ in range(8)]
    assert _kernels.convolve_exact(ints, ints, 8) == _kernels.convolve_schoolbook(ints, ints, 8)
