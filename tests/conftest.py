import pytest

from hannerfaces import recursion


@pytest.fixture(autouse=True)
def fresh_sizing_memo():
    """Each test runs its own sizing log pass: the memo of the last pass
    would otherwise carry over from whichever test ran before."""
    recursion._widest_log2.cache_clear()
