import random

import pytest

from fedsched.errors import OvercommitError
from fedsched.resources import (
    GIB,
    MIB,
    ResourceVector,
    parse_memory,
    sum_vectors,
)


def test_components_must_be_non_negative():
    with pytest.raises(ValueError):
        ResourceVector(-1, 0, 0)
    with pytest.raises(ValueError):
        ResourceVector(0, -5, 0)
    with pytest.raises(ValueError):
        ResourceVector(0, 0, -2)


def test_components_must_be_integers():
    with pytest.raises(ValueError):
        ResourceVector(1.5, 0, 0)
    with pytest.raises(ValueError):
        ResourceVector(0, 0, True)


def test_add_and_subtract_are_component_wise():
    a = ResourceVector(2000, 4 * GIB, 1)
    b = ResourceVector(1000, 2 * GIB, 2)
    assert a + b == ResourceVector(3000, 6 * GIB, 3)
    assert (a + b).subtract(b) == a


def test_subtract_below_zero_is_a_hard_error():
    with pytest.raises(OvercommitError):
        ResourceVector(1000, 0, 0).subtract(ResourceVector(2000, 0, 0))


def test_partial_order_requires_every_component():
    small = ResourceVector(1000, 1 * GIB, 0)
    big = ResourceVector(2000, 2 * GIB, 1)
    mixed = ResourceVector(3000, 1 * MIB, 0)
    assert small.fits_within(big)
    assert not big.fits_within(small)
    # Incomparable pair: neither fits within the other.
    assert not mixed.fits_within(big)
    assert not big.fits_within(mixed)


def test_partial_order_agrees_with_per_component_check():
    rng = random.Random(7)
    for _ in range(200):
        a = ResourceVector(rng.randrange(5), rng.randrange(5), rng.randrange(5))
        b = ResourceVector(rng.randrange(5), rng.randrange(5), rng.randrange(5))
        expected = all(x <= y for x, y in zip(a.as_tuple(), b.as_tuple()))
        assert a.fits_within(b) == expected


def test_sum_vectors_matches_manual_fold():
    vs = [ResourceVector(1, 2, 0), ResourceVector(3, 4, 1), ResourceVector(5, 6, 2)]
    assert sum_vectors(vs) == ResourceVector(9, 12, 3)
    assert sum_vectors([]) == ResourceVector.zero()


@pytest.mark.parametrize(
    "text,expected",
    [
        ("256GiB", 256 * GIB),
        ("1Gi", GIB),
        ("512MiB", 512 * MIB),
        ("0", 0),
        (1024, 1024),
        ("2.5GiB", int(2.5 * GIB)),
    ],
)
def test_parse_memory(text, expected):
    assert parse_memory(text) == expected


def test_parse_memory_rejects_junk():
    for bad in ("", "fast", "-1GiB", "1GB extra", None, True, "9" * 400 + "GiB"):
        with pytest.raises(ValueError):
            parse_memory(bad)
