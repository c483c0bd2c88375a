import pytest

from congruence_atoms import enumerate_standard


@pytest.fixture(scope="session")
def standard_enumerations():
    """enumerate_standard(m) for every m in the reference-table range.

    The engine has no width or total-size pruning, so the bound theorems
    are tested against it rather than assumed."""
    return {m: enumerate_standard(m) for m in range(2, 24)}
