"""Every constructor stores the validated tables as read-only numpy arrays
in the least dtype, equal to the tuple tables, beside the additive
generators that validation found (checked against the one-element closure
of ``test_validator``)."""

import numpy as np
import pytest

from skewarm import (
    make_direct_product,
    make_galois_field,
    make_ideal,
    make_quotient,
    make_table_ring,
    make_trivial_extension,
    make_zmod,
    regular_bimodule,
    relabel_ring,
)
from skewarm.formats import parse_ring_definition
from test_validator import _reference_additive_generators


def _quotient():
    z8 = make_zmod(8)
    return make_quotient(z8, make_ideal(z8, [0, 4]))[0]


def _trivial_extension():
    z16 = make_zmod(16)
    return make_trivial_extension(z16, regular_bimodule(z16))


def _table():
    # Z2 × Z2 with the zero at index 3 and a null multiplication
    add = [[3, 2, 1, 0], [2, 3, 0, 1], [1, 0, 3, 2], [0, 1, 2, 3]]
    return make_table_ring(add, [[3] * 4] * 4)


def _labelled_definition():
    doc = {
        "schema_version": "1",
        "kind": "product",
        "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 3}],
        "label": "labelled",
    }
    ring, _ = parse_ring_definition(doc)
    assert ring.label == "labelled"
    return ring


CONSTRUCTORS = {
    "zmod": lambda: make_zmod(12),
    "zmod-at-cap": lambda: make_zmod(256),
    "zmod-past-uint8": lambda: make_zmod(257, size_cap=257),
    "gf-p": lambda: make_galois_field(5, 1),
    "gf-p^k": lambda: make_galois_field(3, 2),
    "product": lambda: make_direct_product(make_zmod(4), make_galois_field(2, 2)),
    "product-at-cap": lambda: make_direct_product(make_zmod(16), make_zmod(16)),
    "product-past-uint8": lambda: make_direct_product(make_zmod(17), make_zmod(17), 289),
    "trivial-extension": _trivial_extension,
    "quotient": _quotient,
    "table": _table,
    "relabel": lambda: relabel_ring(make_zmod(6), [3, 5, 0, 1, 4, 2])[0],
    "labelled-definition": _labelled_definition,
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_stored_arrays_are_the_validated_tables(name):
    ring = CONSTRUCTORS[name]()
    dtype = np.min_scalar_type(ring.size - 1)
    for array, table in ((ring.add_array, ring.add_table), (ring.mul_array, ring.mul_table)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0
        assert array.dtype == dtype
        assert array.shape == (ring.size, ring.size)
        assert np.array_equal(array, np.array(table))
    assert ring.generators == tuple(_reference_additive_generators(np.array(ring.add_table)))


def test_least_dtype_widens_past_256_elements():
    assert CONSTRUCTORS["zmod-at-cap"]().add_array.dtype == np.uint8
    assert CONSTRUCTORS["zmod-past-uint8"]().mul_array.dtype == np.uint16


def test_stored_arrays_do_not_alias_the_input():
    add = np.array([[0, 1], [1, 0]])
    mul = np.array([[0, 0], [0, 1]])
    ring = make_table_ring(add, mul)
    add[0, 0] = mul[1, 1] = 1
    assert ring.add_array[0, 0] == 0 and ring.mul_array[1, 1] == 1
    assert ring.add_table[0][0] == 0


def test_relabelled_ring_keeps_its_own_arrays():
    ring = make_zmod(6)
    perm = [3, 5, 0, 1, 4, 2]
    moved, _ = relabel_ring(ring, perm)
    for x in range(6):
        for y in range(6):
            assert moved.add_array[perm[x], perm[y]] == perm[ring.add(x, y)]
            assert moved.mul_array[perm[x], perm[y]] == perm[ring.mul(x, y)]
