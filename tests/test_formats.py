import copy
import json
import pickle

import numpy as np
import pytest

from skewarm import (
    PropertyId,
    check_armendariz_family,
    check_property,
    identity_endomorphism,
    is_reduced,
    make_table_ring,
    make_zmod,
    replay_witness,
)
from skewarm.formats import (
    FormatError,
    _booleans_in_lists,
    corpus_manifest,
    parse_ring_definition,
    parse_verdict_record,
    record_to_json,
    verdict_to_record,
)


def doc(**kw):
    base = {"schema_version": "1"}
    base.update(kw)
    return base


def test_zmod_definition():
    ring, endo = parse_ring_definition(doc(kind="zmod", n=4))
    assert ring.size == 4 and endo is None


def test_label_override():
    ring, _ = parse_ring_definition(doc(kind="zmod", n=4, label="mything"))
    assert ring.label == "mything"


def test_product_with_swap():
    ring, endo = parse_ring_definition(
        doc(
            kind="product",
            factors=[{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 2}],
            endomorphism={"builtin": "swap"},
        )
    )
    assert ring.size == 4
    assert endo.images == (0, 2, 1, 3)


def test_swap_requires_equal_factors():
    with pytest.raises(FormatError):
        parse_ring_definition(
            doc(
                kind="product",
                factors=[{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 3}],
                endomorphism={"builtin": "swap"},
            )
        )


def test_trivial_extension_negate_second():
    ring, endo = parse_ring_definition(
        doc(
            kind="trivial_extension",
            base={"kind": "zmod", "n": 4},
            endomorphism={"builtin": "negate_second_component"},
        )
    )
    assert ring.size == 16
    assert endo.period == 2


def test_quotient_definition():
    ring, _ = parse_ring_definition(
        doc(kind="quotient", base={"kind": "zmod", "n": 4}, ideal=[0, 2])
    )
    assert ring.size == 2


def test_galois_with_frobenius():
    ring, endo = parse_ring_definition(
        doc(kind="galois_field", p=2, k=2, endomorphism={"builtin": "frobenius"})
    )
    assert ring.size == 4 and endo.period == 2


def test_table_definition_with_images():
    ring, endo = parse_ring_definition(
        doc(
            kind="table",
            add_table=[[0, 1], [1, 0]],
            mul_table=[[0, 0], [0, 1]],
            endomorphism={"images": [0, 1]},
        )
    )
    assert ring.one == 1 and endo.is_identity


def test_unknown_kind_and_fields_rejected():
    with pytest.raises(FormatError):
        parse_ring_definition(doc(kind="mystery"))
    with pytest.raises(FormatError):
        parse_ring_definition(doc(kind="zmod", n=4, extra=1))
    with pytest.raises(FormatError):
        parse_ring_definition({"kind": "zmod", "n": 4})  # missing schema_version
    with pytest.raises(FormatError):
        parse_ring_definition(doc(kind="zmod", n=4, endomorphism={"images": [0], "builtin": "identity"}))


def test_identity_and_negation_builtins():
    ring, endo = parse_ring_definition(
        doc(kind="zmod", n=2, endomorphism={"builtin": "negation"})
    )
    assert endo.is_identity  # negation on Z2 is the identity
    from skewarm import AxiomError

    with pytest.raises(AxiomError):
        parse_ring_definition(doc(kind="zmod", n=4, endomorphism={"builtin": "negation"}))


def test_verdict_record_roundtrip_and_replay():
    ring, endo = parse_ring_definition(
        doc(
            kind="trivial_extension",
            base={"kind": "zmod", "n": 4},
            endomorphism={"builtin": "negate_second_component"},
        )
    )
    verdict = check_armendariz_family(
        ring, endo, 1, PropertyId.Q_ALPHA_SKEW_ARMENDARIZ
    )
    rec = verdict_to_record(verdict, ring, endo)
    text = record_to_json(rec)
    ring2, endo2, prop, env, witness, holds = parse_verdict_record(json.loads(text))
    assert not holds
    assert ring2.mul_table == ring.mul_table
    assert endo2.images == endo.images
    assert env.degree == 1
    replay_witness(ring2, endo2, prop, witness)


def test_structured_output_is_byte_stable():
    ring, endo = parse_ring_definition(
        doc(
            kind="product",
            factors=[{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 2}],
            endomorphism={"builtin": "swap"},
        )
    )
    verdict = check_property(ring, endo, PropertyId.ALPHA_SKEW_ARMENDARIZ, degree=1)
    a = record_to_json(verdict_to_record(verdict, ring, endo))
    ring2, endo2 = parse_ring_definition(
        doc(
            kind="product",
            factors=[{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 2}],
            endomorphism={"builtin": "swap"},
        )
    )
    verdict2 = check_property(ring2, endo2, PropertyId.ALPHA_SKEW_ARMENDARIZ, degree=1)
    b = record_to_json(verdict_to_record(verdict2, ring2, endo2))
    assert a == b


def test_element_level_record_roundtrip(z4):
    from skewarm import is_reduced

    verdict = is_reduced(z4)
    rec = json.loads(record_to_json(verdict_to_record(verdict, z4, None)))
    ring2, endo2, prop, env, witness, holds = parse_verdict_record(rec)
    assert not holds and env.exhaustive
    replay_witness(ring2, endo2, prop, witness)


def test_verdict_record_rejects_garbage():
    with pytest.raises(FormatError):
        parse_verdict_record({"kind": "nope"})
    with pytest.raises(FormatError):
        parse_verdict_record(
            {
                "kind": "verdict",
                "schema_version": "1",
                "property": "reduced",
                "ring": {
                    "add_table": [[0]],
                    "mul_table": [[0]],
                },
                "outcome": "fails",
                "witness": None,
            }
        )


def test_manifest_schema():
    m = corpus_manifest()
    assert m["kind"] == "corpus" and m["schema_version"] == "1"
    for entry in m["entries"]:
        assert entry["definition"]["schema_version"] == "1"
        for exp in entry["expectations"]:
            assert exp["outcome"] in ("holds", "fails")
            assert exp["provenance"] in ("literature", "trivial", "computed")


# --------------------------------------------------------------------------
# structured output: the bytes of json.dumps with sorted keys, compact


def _reference_json(rec):
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


# quotes, backslashes, non-ASCII text and the text of a table's key
TRICKY_LABELS = ('a"b', "c\\d", "\u00e9", "\u2211", "\U0001F600", '"add_table":0,', '"mul_table":[')


def _tricky_ring(size):
    """Z_size with its first labels replaced by ``TRICKY_LABELS``."""
    cap = max(size, 256)
    base = make_zmod(size, size_cap=cap)
    labels = list(base.element_labels)
    labels[: len(TRICKY_LABELS)] = TRICKY_LABELS[:size]
    label = 'Z "add_table":0, \\ \u00e9'
    return make_table_ring(base.add_array, base.mul_array, labels, label, size_cap=cap)


@pytest.mark.parametrize("size", [1, 10, 11, 100, 101, 256, 300])
def test_record_bytes_match_the_reference_encoding(size):
    ring = _tricky_ring(size)
    assert ring.add_array.dtype == (np.uint16 if size > 256 else np.uint8)
    verdicts = [is_reduced(ring)]
    if size <= 11:
        alpha = identity_endomorphism(ring)
        verdicts.append(check_property(ring, alpha, PropertyId.ALPHA_SKEW_ARMENDARIZ, degree=1))
    for verdict in verdicts:
        for endo in (None, identity_endomorphism(ring)):
            rec = verdict_to_record(verdict, ring, endo)
            text = record_to_json(rec)
            assert text == _reference_json(rec)
            parsed = json.loads(text)
            assert parsed["ring"]["mul_table"] == [list(row) for row in ring.mul_table]
            assert record_to_json(parsed) == text  # a record read back writes the same bytes
    assert any(not v.holds for v in verdicts) == (size in (100, 256, 300))


def test_record_tables_are_the_rings_and_stay_read_only():
    ring = _tricky_ring(10)
    rec = verdict_to_record(is_reduced(ring), ring, None)
    assert rec["ring"]["add_table"] == ring.add_table
    assert rec["ring"]["mul_table"] == ring.mul_table
    with pytest.raises(TypeError):
        rec["ring"]["add_table"][0] = (0,) * 10
    for copied in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert record_to_json(copied) == record_to_json(rec)


@pytest.mark.parametrize(
    "text, found",
    [
        ('{"t": [[0, 1], [1, true]]}', True),
        ('{"t": [false, 1]}', True),
        ('{"t": [\n  true]}', True),
        ('{"exhaustive": true, "t": [[0, 1]]}', False),
        ('{"exhaustive":false}', False),
        ('{"labels": ["true", "false"]}', False),
        ('{"labels": ["a,true"]}', True),  # a false alarm costs time, never a verdict
        ("[1, 2]", False),
    ],
)
def test_booleans_in_lists_are_found_from_the_text(text, found):
    assert _booleans_in_lists(text) == found


def test_json_booleans_in_a_table_are_refused():
    definition = doc(kind="table", add_table=[[0, 1], [1, 0]], mul_table=[[0, 0], [0, True]])
    with pytest.raises(FormatError, match=r"^ring\.mul_table entries must be integers$"):
        parse_ring_definition(definition)
    z4 = make_zmod(4)
    rec = json.loads(record_to_json(verdict_to_record(is_reduced(z4), z4, None)))
    rec["ring"]["add_table"][0][0] = False
    with pytest.raises(FormatError, match=r"^ring\.add_table entries must be integers$"):
        parse_verdict_record(rec)
