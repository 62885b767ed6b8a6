import random

import pytest

from fedsched.cluster import fits
from fedsched.errors import OvercommitError
from fedsched.resources import (
    GIB,
    MIB,
    ResourceVector,
    add_triples,
    parse_memory,
    subtract_triples,
)

from conftest import make_node, make_pod


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
    with pytest.raises(ValueError, match="^cpu_millicores must be an integer, got True$"):
        ResourceVector(True, 0, 0)
    with pytest.raises(ValueError, match=r"^cpu_millicores must be an integer, got 1\.0$"):
        ResourceVector(1.0, 0, 0)
    with pytest.raises(ValueError, match="^memory_bytes must be >= 0, got -1$"):
        ResourceVector(1, -1, 0)


def test_add_and_subtract_are_component_wise():
    a = (2000, 4 * GIB, 1)
    b = (1000, 2 * GIB, 2)
    assert add_triples(a, b) == (3000, 6 * GIB, 3)
    assert subtract_triples(add_triples(a, b), b) == a


def test_subtract_below_zero_is_a_hard_error():
    with pytest.raises(OvercommitError):
        subtract_triples((1000, 0, 0), (2000, 0, 0))


def _fits_within(request, free):
    """The resource half of `cluster.fits`: a request on a Ready container
    node with no selector fits exactly when it is within `free`."""
    return fits(make_pod("p", *request), make_node("n"), free)


def test_partial_order_requires_every_component():
    small = (1000, 1 * GIB, 0)
    big = (2000, 2 * GIB, 1)
    mixed = (3000, 1 * MIB, 0)
    assert _fits_within(small, big)
    assert not _fits_within(big, small)
    # Incomparable pair: neither fits within the other.
    assert not _fits_within(mixed, big)
    assert not _fits_within(big, mixed)


def test_partial_order_agrees_with_per_component_check():
    rng = random.Random(7)
    for _ in range(200):
        a = (rng.randrange(5), rng.randrange(5), rng.randrange(5))
        b = (rng.randrange(5), rng.randrange(5), rng.randrange(5))
        expected = all(x <= y for x, y in zip(a, b))
        assert _fits_within(a, b) == expected


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
