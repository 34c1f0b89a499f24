"""The package's public names: each one resolves, and deleted ones stay gone."""

import dataclasses

import hannerfaces
from hannerfaces import geometry, phimap, selftest, trees
from hannerfaces.asymptotics import ScanRow
from hannerfaces.polys import IntPoly
from hannerfaces.schedule import Window

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
