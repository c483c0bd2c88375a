import pytest

from congruence_atoms import enumerate_standard, reduction


@pytest.fixture(scope="session")
def standard_enumerations():
    """enumerate_standard(m) for every m in the reference-table range.

    The engine has no width or total-size pruning, so the bound theorems
    are tested against it rather than assumed."""
    return {m: enumerate_standard(m) for m in range(2, 24)}


@pytest.fixture
def buckets_built(monkeypatch):
    """The number of rows of each bucket the lift walk builds, appended
    as `reduction._bucket_rows` returns it."""
    built = []
    plain = reduction._bucket_rows

    def bucket_rows(*args):
        rows = plain(*args)
        built.append(len(rows))
        return rows

    monkeypatch.setattr(reduction, "_bucket_rows", bucket_rows)
    return built
