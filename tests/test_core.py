import json
import math
import subprocess
import sys
from itertools import combinations, islice, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from congruence_atoms import (
    CongruenceInstance,
    DomainError,
    NormalForm,
    bound_violations,
    euler_phi,
    metrics,
)
from congruence_atoms.core import Memo, closure_mask, compositions

vectors = st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=12)


def test_metrics_zero_vector():
    met = metrics((0, 0, 0, 0))
    assert (met.length, met.width, met.weight) == (0, 0, 0)


def test_metrics_known_values():
    met = metrics((1, 1))
    assert met.length == 2 and met.width == 2 and met.weight == 3
    met = metrics((2, 1, 0))
    assert met.length == 3
    assert met.width == 2
    assert met.height == 2
    assert met.weight == 4
    assert met.total_size == 5


def test_metrics_independent_summation_oracle():
    # brute re-summation, written differently on purpose
    x = (2, 1, 0)
    expected_weight = 0
    for idx in range(len(x)):
        for _ in range(x[idx]):
            expected_weight += idx + 1
    assert metrics(x).weight == expected_weight == 4


def test_metrics_rejects_bad_vectors():
    with pytest.raises(DomainError):
        metrics(())
    with pytest.raises(DomainError):
        metrics((1, -1))


@given(vectors)
def test_metric_chain(coords):
    met = metrics(coords)
    assert met.width <= met.length <= met.weight
    assert met.total_size == met.length + met.width


def test_bound_violations_names_each_bound():
    # one hand-made vector per bound; a length violation always breaks
    # the total size bound too, since width >= 1
    assert bound_violations((1, 0, 1), 4) == ()
    assert bound_violations((5, 0, 0), 4) == ("length", "total size")
    assert bound_violations((1, 1, 1, 1, 0, 0), 7) == ("width",)
    assert bound_violations((5, 1, 0, 0, 0), 6) == ("total size",)
    assert bound_violations((2, 2, 2, 0, 0, 0, 0), 8) == ("length refinement",)
    # the refinement needs m >= 7 and width >= 3
    assert bound_violations((2, 2, 2, 0, 0), 6) == ("total size",)
    assert bound_violations((3, 3, 0, 0, 0, 0, 0), 8) == ()


def test_euler_phi_values():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert euler_phi(12) == 4
    for m in range(1, 200):
        assert euler_phi(m) == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def test_euler_phi_multiplicative():
    for a in range(1, 40):
        for b in range(1, 1000 // a + 1):
            if math.gcd(a, b) == 1:
                assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_congruence_instance_normalization():
    inst = CongruenceInstance(5, (7, 2))
    assert inst.coefficients == (2, 2)
    with pytest.raises(DomainError):
        CongruenceInstance(1, (1,))
    with pytest.raises(DomainError):
        CongruenceInstance(5, ())


def test_normal_form_validation():
    nf = NormalForm(6, (2, 3))
    assert nf.support == (2, 3)
    # letter 0 is an ordinary letter
    assert NormalForm(6, (0, 2)).support == (0, 2)
    with pytest.raises(DomainError):
        NormalForm(6, ())
    with pytest.raises(DomainError):
        NormalForm(6, (3, 2))
    with pytest.raises(DomainError):
        NormalForm(6, (-1, 2))
    with pytest.raises(DomainError):
        NormalForm(6, (2, 6))


def test_normal_form_names_the_standard_alphabet():
    # 1..m-1 is the one strictly increasing run of m - 1 letters in
    # [0, m) that starts at 1; the counter and the cache key both read it
    for m in range(2, 9):
        assert NormalForm.standard(m).is_standard
        assert NormalForm(m, range(1, m)).is_standard
        assert not NormalForm(m, range(0, m - 1)).is_standard
        assert not NormalForm(m, range(0, m)).is_standard
        if m > 2:
            assert not NormalForm(m, range(1, m - 1)).is_standard
            assert not NormalForm(m, range(2, m)).is_standard


def test_compositions_are_lexicographic_stars_and_bars():
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []
    assert list(compositions(4, 1)) == [(4,)]
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    for total in range(7):
        for parts in range(1, 5):
            box = product(range(total + 1), repeat=parts)
            expected = [c for c in box if sum(c) == total]
            assert list(compositions(total, parts)) == expected
            assert len(expected) == math.comb(total + parts - 1, parts - 1)


def test_compositions_are_lazy():
    # C(10^6 + 4, 4) tuples: only a lazy generator returns the first few
    n = 10**6
    first = list(islice(compositions(n, 5), 3))
    assert first == [(0, 0, 0, 0, n), (0, 0, 0, 1, n - 1), (0, 0, 0, 2, n - 2)]


def test_closure_mask_is_the_set_of_sub_multiset_sums():
    # every multiset of three letters mod m, repeats included, against
    # its non-empty sub-multiset sums taken by positions
    for m in range(2, 8):
        for items in product(range(m), repeat=3):
            sums = {
                sum(part) % m for r in (1, 2, 3) for part in combinations(items, r)
            }
            assert closure_mask(items, m) == sum(1 << s for s in sums), (m, items)
    assert closure_mask((), 5) == 0


@pytest.mark.parametrize(
    "key_bytes, entries",
    [(1, 16_384), (8, 16_384), (10, 13_107), (1_000, 131), (6_667, 19)],
)
def test_memo_starts_over_within_the_byte_budget(key_bytes, entries):
    # a memo holds at most 2^17 bytes of keys, a key of up to 8 bytes
    # counting as 8: never more entries than the 16,384 of 8-byte keys
    memo = Memo(str, key_bytes)
    sizes = []
    for key in range(2 * entries + 1):
        assert memo[key] == str(key)
        sizes.append(len(memo))
    assert max(sizes) == entries
    assert sizes[-1] == 1


def test_star_import_binds_only_the_public_api():
    # a fresh interpreter, so no submodule imported by another test is
    # bound in the package: every public name but the submodules is
    # exported, and no exported name is a module
    code = """if True:
        import json, types
        import congruence_atoms
        public = [name for name in dir(congruence_atoms) if not name.startswith("_")]
        star = {}
        exec("from congruence_atoms import *", star)
        del star["__builtins__"]
        modules = [name for name in public if isinstance(getattr(congruence_atoms, name), types.ModuleType)]
        exported_modules = [name for name, value in star.items() if isinstance(value, types.ModuleType)]
        print(json.dumps([public, modules, sorted(star), exported_modules]))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    public, modules, star, exported_modules = json.loads(proc.stdout)
    assert sorted(modules) == [
        "bounds", "core", "enumeration", "extremal", "reduction", "subset_sums", "tables",
    ]
    assert exported_modules == []
    assert star == sorted(set(public) - set(modules))
