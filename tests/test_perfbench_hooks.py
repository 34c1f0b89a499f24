"""The benchmark's span hooks name functions that exist, and the tree check
runs under exactly one span.  ``perfbench/spans.py`` is loaded by path and
only read."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from hannerfaces import cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
