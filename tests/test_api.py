"""The package's public names: each one resolves, and deleted ones stay gone;
its private names each have a reader."""

import ast
import dataclasses
from pathlib import Path

import hannerfaces
from hannerfaces import geometry, phimap, selftest, trees
from hannerfaces.asymptotics import ScanRow
from hannerfaces.polys import IntPoly
from hannerfaces.schedule import Window

REPO = Path(__file__).resolve().parents[1]

# names deleted from the package; neither the exports nor the modules that
# held them may hold them
DELETED = (
    "build_lower_bound_tree",
    "lower_bound_value",
    "upper_bound_report",
    "UpperBoundReport",
    "iter_nodes",
    "TreeStats",
    "atypical_count_and_leaf_bound",
    "f_vector_crosscheck",
    "CrosscheckResult",
    "degree_histogram",
    "window_phis",
    "preorder_encode",
    "preorder_decode",
    "count_trees",
    "RadiiState",
)


def test_every_exported_name_resolves():
    missing = [name for name in hannerfaces.__all__ if not hasattr(hannerfaces, name)]
    assert missing == []


def test_exports_sorted_without_duplicates():
    assert hannerfaces.__all__ == sorted(set(hannerfaces.__all__))


def test_deleted_names_stay_gone():
    for name in DELETED:
        assert name not in hannerfaces.__all__
        assert not hasattr(hannerfaces, name)
        assert not any(hasattr(module, name) for module in (geometry, phimap, selftest, trees))


def test_deleted_members_stay_gone():
    # IntPoly holds products, not recursion states; nothing read ScanRow.d or Window.word_str
    assert not any(hasattr(IntPoly, name) for name in ("monomial", "shift", "log2"))
    assert "d" not in {field.name for field in dataclasses.fields(ScanRow)}
    assert not hasattr(Window, "word_str")


def _reads(tree, skip=None):
    """The names an AST loads, as a ``Name`` or as an ``Attribute``, outside
    the node ``skip``; a name in a string or a comment is not read."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _private_definitions(tree):
    """(name, node) of each top-level private def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_has_a_reader():
    # read in src/ outside its own definition, or by the benchmark harness
    modules = {path.name: ast.parse(path.read_text()) for path in sorted((REPO / "src" / "hannerfaces").glob("*.py"))}
    bench = set().union(*(_reads(ast.parse(path.read_text())) for path in (REPO / "perfbench").glob("*.py")))
    orphans = []
    for module, tree in modules.items():
        elsewhere = bench.union(*(_reads(other) for name, other in modules.items() if name != module))
        for name, node in _private_definitions(tree):
            if name not in elsewhere and name not in _reads(tree, skip=node):
                orphans.append(f"{module}:{name}")
    assert orphans == []
