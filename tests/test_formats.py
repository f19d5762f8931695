import contextlib
import copy
import io
import itertools
import json
import pickle
import re
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewarm import (
    PropertyId,
    RingError,
    check_armendariz_family,
    check_property,
    cli,
    formats,
    identity_endomorphism,
    is_reduced,
    make_table_ring,
    make_zmod,
    random_relabeling,
    replay_witness,
)
from skewarm.formats import (
    FormatError,
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


def _shipped_manifest() -> dict:
    """The shipped manifest, read by plain ``json``."""
    text = resources.files("skewarm").joinpath("data/corpus.json").read_text(encoding="utf-8")
    return json.loads(text)


# (a field of the shipped manifest's first entry, values the parser refuses
# there, the start of the refusal)
REFUSED_ENTRY_FIELDS = [
    (("name",), (["x"], 5, None), "corpus entry.name must be a string"),
    (("description",), (5, None), "corpus entry.description must be a string"),
    (("exploratory",), ("no", 0, 1, None), "corpus entry.exploratory must be true or false"),
    (("expectations", 0, "outcome"), ("hold", "Holds", True, None),
     "expectation.outcome must be one of"),
    (("expectations", 0, "provenance"), ("folklore", "", ["literature"]),
     "expectation.provenance must be one of"),
    (("expectations", 0, "envelope", "exhaustive"), ("no", 0, 1, None),
     "envelope.exhaustive must be true or false"),
]


def test_manifest_schema():
    """An expectation's outcome is "holds" or "fails" and its provenance one
    of three tags, and an entry's exploratory flag is a JSON boolean: the
    shipped manifest uses each value, and the parser refuses any other,
    naming the field."""
    shipped = _shipped_manifest()["entries"]
    entries = [formats.parse_manifest_entry(e) for e in shipped]
    assert {x.provenance for e in entries for x in e.expected} == set(formats.PROVENANCES)
    assert {x.holds for e in entries for x in e.expected} == {True, False}
    assert {e.exploratory for e in entries} == {True, False}
    for path, values, refusal in REFUSED_ENTRY_FIELDS:
        for value in values:
            entry = copy.deepcopy(shipped[0])
            doc = entry
            for key in path[:-1]:
                doc = doc[key]
            doc[path[-1]] = value
            with pytest.raises(FormatError, match="^" + re.escape(refusal)):
                formats.parse_manifest_entry(entry)


@pytest.mark.parametrize(
    "path, value, refusal",
    [
        *[(("envelope", "exhaustive"), v, r"^envelope\.exhaustive must be true or false")
          for v in ("no", 0, 1, None)],
        *[(("outcome",), v, r"^outcome must be one of") for v in ("hold", "Fails", True, None)],
    ],
)
def test_verdict_record_refuses_a_field_it_would_guess_at(z4, path, value, refusal):
    rec = verdict_to_record(is_reduced(z4), z4, None)
    assert rec["envelope"] == {"exhaustive": True} and rec["outcome"] == "fails"
    parse_verdict_record(json.loads(record_to_json(rec)))
    doc = rec
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value
    with pytest.raises(FormatError, match=refusal):
        parse_verdict_record(json.loads(record_to_json(rec)))


NOT_STRINGS = pytest.mark.parametrize(
    "value", [["x"], {"a": 1}, 5, True], ids=["list", "object", "number", "true"]
)
# where a definition gives a label, and the refusal naming it
DEFINITION_LABELS = [
    ({}, "label"),
    ({"endomorphism": {"images": [0, 1]}}, "endomorphism.label"),
    ({"endomorphism": {"builtin": "identity"}}, "endomorphism.label"),
]


@NOT_STRINGS
@pytest.mark.parametrize("fields, name", DEFINITION_LABELS, ids=["ring", "images", "builtin"])
def test_definition_refuses_a_label_that_is_not_a_string(tmp_path, capsys, value, fields, name):
    definition = copy.deepcopy(doc(kind="zmod", n=2, **fields))
    spec = definition.get("endomorphism", definition)
    spec["label"] = "named"
    parse_ring_definition(definition)
    spec["label"] = value
    with pytest.raises(FormatError, match=f"^{re.escape(name)} must be a string"):
        parse_ring_definition(definition)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(definition))
    assert cli.main(["check", str(path), "--property", "reduced"]) == 2
    assert f"{name} must be a string" in capsys.readouterr().err


def test_absent_labels_keep_their_defaults(z4):
    ring, endo = parse_ring_definition(doc(kind="zmod", n=2, endomorphism={"images": [0, 1]}))
    assert (ring.label, endo.label) == ("Z2", "endo")
    _, endo = parse_ring_definition(doc(kind="zmod", n=2, endomorphism={"builtin": "identity"}))
    assert endo.label == "identity"
    rec = verdict_to_record(is_reduced(z4), z4, identity_endomorphism(z4))
    del rec["ring"]["label"], rec["endomorphism"]["label"]
    ring, endo, *_ = parse_verdict_record(json.loads(record_to_json(rec)))
    assert (ring.label, endo.label) == ("ring", "endo")


@NOT_STRINGS
@pytest.mark.parametrize("field", ["ring", "endomorphism"])
def test_verdict_record_refuses_a_label_that_is_not_a_string(
    z4, tmp_path, capsys, value, field
):
    rec = verdict_to_record(is_reduced(z4), z4, identity_endomorphism(z4))
    rec[field]["label"] = value
    with pytest.raises(FormatError, match=f"^{field}.label must be a string"):
        parse_verdict_record(json.loads(record_to_json(rec)))
    path = tmp_path / "record.json"
    path.write_text(record_to_json(rec))
    assert cli.main(["replay", str(path)]) == 2
    assert f"{field}.label must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["example4", "example5_r1", "example5_r2"])
def test_manifest_table_entries_refuse_booleans(tmp_path, name):
    """The manifest's table-kind definitions reach ``_table`` as lists of
    rows; a JSON true among the entries is refused, not read by numpy as the
    index 1."""
    manifest = _shipped_manifest()
    (entry,) = [e for e in manifest["entries"] if e["name"] == name]
    table = entry["definition"]["mul_table"]
    assert table[1][1] in (0, 1)
    table[1][1] = bool(table[1][1])
    with pytest.raises(FormatError, match=r"^ring\.mul_table entries must be integers$"):
        formats.parse_manifest_entry(entry)
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(FormatError, match=r"^ring\.mul_table entries must be integers$"):
        formats.load_manifest(path)


# --------------------------------------------------------------------------
# structured output: the bytes of json.dumps with sorted keys, compact


def _reference_json(rec):
    return json.dumps(rec, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist) + "\n"


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
    assert rec["ring"]["add_table"] is ring.add_array
    assert rec["ring"]["mul_table"] is ring.mul_array
    for key in ("add_table", "mul_table"):
        with pytest.raises(ValueError, match="read-only"):
            rec["ring"][key][0, 0] = 1
    for copied in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert record_to_json(copied) == record_to_json(rec)


def test_record_to_json_builds_no_tuple_table():
    ring = _tricky_ring(256)
    alpha = identity_endomorphism(ring)
    text = record_to_json(verdict_to_record(is_reduced(ring), ring, alpha))
    assert "add_table" not in ring.__dict__ and "mul_table" not in ring.__dict__
    assert json.loads(text)["ring"]["add_table"] == ring.add_array.tolist()


def test_record_to_json_writes_other_arrays_as_json_does(tmp_path):
    """A table array ``read_json`` reads whose entries are no indices of it
    (5 in a 2 × 2 table) is written as ``json.dumps`` writes its rows."""
    path = tmp_path / "verdict.json"
    path.write_text('{"kind": "verdict", "ring": {"add_table": [[0,5],[1,0]], "mul_table": [[0]]}}')
    rec = formats.read_json(path, "doc")
    assert isinstance(rec["ring"]["add_table"], np.ndarray)
    assert record_to_json(rec) == _reference_json(rec)
    assert json.loads(record_to_json(rec)) == json.loads(path.read_text())
    for other in (np.array([[0, 1, 2]]), np.array([[-1, 0], [0, 0]]), np.array([[True]])):
        assert record_to_json({"t": other}) == _reference_json({"t": other})


@pytest.mark.parametrize(
    "text, array",
    [
        ('{"kind": "table", "add_table": [[0, 1], [1, 0]], "labels": [true, "b"]}', True),
        ('{"kind": "table", "add_table": [[0, 1], [1, 0]],\n "labels": [\nfalse]}', True),
        ('{"kind": "table", "mul_table": [[0, 0], [0, true]]}', False),
        ('{"kind": "table", "add_table": [[0, 1], [1, 0]], "exhaustive": true}', True),
        ('{"kind": "table", "add_table": [[0, 1], [1, 0]], "labels": ["true"]}', True),
        # read by json.loads alone: a repeated key, an escaped key
        ('{"kind": "table", "add_table": [[0, 1], [1, 0]], "add_table": [[0, 1], [1, true]]}', False),
        ('{"kind": "table", "\\u0061dd_table": [[0, 1], [1, false]]}', False),
    ],
)
def test_read_json_reads_booleans_beside_and_in_tables_as_json_does(tmp_path, text, array):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    doc = formats.read_json(path, "doc")
    assert isinstance(doc.get("add_table"), np.ndarray) == array
    assert formats._as_lists(doc) == json.loads(text)


@pytest.mark.parametrize(
    "mul",
    [
        '"mul_table": [[0, 0], [0, true]]',
        '"mul_table": [[0, 0], [0, 0]], "mul_table": [[0, 0], [0, false]]',  # a repeated key
        '"\\u006dul_table": [[0, 0], [0, true]]',  # an escaped key
    ],
)
def test_json_booleans_in_a_table_read_from_a_file_are_refused(tmp_path, mul):
    path = tmp_path / "doc.json"
    path.write_text('{"schema_version": "1", "kind": "table", "add_table": [[0, 1], [1, 0]], '
                    + mul + "}")
    with pytest.raises(FormatError, match=r"^ring\.mul_table entries must be integers$"):
        formats.load_ring_definition(path)
    z2 = make_zmod(2)
    text = record_to_json(verdict_to_record(is_reduced(z2), z2, None))
    path.write_text(text.replace('"mul_table":[[0,0],[0,1]]', mul))
    with pytest.raises(FormatError, match=r"^ring\.mul_table entries must be integers$"):
        parse_verdict_record(formats.read_json(path, "doc"))


def test_json_booleans_in_a_table_are_refused(tmp_path):
    definition = doc(kind="table", add_table=[[0, 1], [1, 0]], mul_table=[[0, 0], [0, True]])
    with pytest.raises(FormatError, match=r"^ring\.mul_table entries must be integers$"):
        parse_ring_definition(definition)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(definition), encoding="utf-8")
    with pytest.raises(FormatError, match=r"^ring\.mul_table entries must be integers$"):
        formats.load_ring_definition(path)
    z4 = make_zmod(4)
    rec = json.loads(record_to_json(verdict_to_record(is_reduced(z4), z4, None)))
    rec["ring"]["add_table"][0][0] = False
    with pytest.raises(FormatError, match=r"^ring\.add_table entries must be integers$"):
        parse_verdict_record(rec)


# --------------------------------------------------------------------------
# read_json's byte-level table reader against the reference path: json.loads
# of the whole text, then np.array of each list of rows in _table


def _reference_read_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.loads(fh.read())
    except (OSError, json.JSONDecodeError) as err:
        raise FormatError(f"cannot read {what}: {err}") from err


def _reference_table(value, where):
    try:
        table = np.array(value)
    except ValueError:  # rows of unequal shapes
        table = np.array(None)
    if not isinstance(value, list) or table.shape != (len(value), len(value)):
        raise FormatError(f"{where} must be a square table: a list of n lists of n integers")
    if table.dtype.kind not in "iu" or bool in set(map(type, itertools.chain.from_iterable(value))):
        raise FormatError(f"{where} entries must be integers")
    if not 0 <= table.min() <= table.max() < len(value):
        raise FormatError(f"{where} entries must lie in 0..{len(value) - 1}")
    return table


@contextlib.contextmanager
def _reference_reader():
    with mock.patch.object(formats, "read_json", _reference_read_json), mock.patch.object(
        formats, "_table", _reference_table
    ):
        yield


# How an entry's token may be spoiled: "{}" stands for the entry.
ENTRY_EDITS = (
    "0{}", "00", "", "-1", "-0", "1.0", "{}.5", "1e0", "true", "false", "null", '"1"',
    "{} 1", "[{}]", "{}0000000000000000000", "9223372036854775808",
    "18446744073709551616", "99999999999999999999", "999999999999999999", "n", "n+5",
)
TABLE_EDITS = ("none", "entry", "short row", "long row", "short", "long", "nested", "empty")


def _edit_table(grid, edit, rnd):
    """The rows of entry tokens of an n × n table, spoiled by ``edit``."""
    n = len(grid)
    grid = [list(row) for row in grid]
    i, j = rnd.randrange(n), rnd.randrange(n)
    if edit == "entry":
        token = rnd.choice(ENTRY_EDITS)
        token = str(n + 5) if token == "n+5" else str(n) if token == "n" else token
        grid[i][j] = token.format(grid[i][j])
    elif edit == "short row":
        grid[i].pop()
    elif edit == "long row":
        grid[i].append("0")
    elif edit == "short":
        grid.pop()
    elif edit == "long":
        grid.append(list(grid[i]))
    elif edit == "nested":
        return [grid]
    elif edit == "empty":
        return []
    return grid


def _spell(grid, rnd):
    """Rows of tokens as a JSON list of lists, with random JSON whitespace
    around every token."""

    def space():
        return "".join(rnd.choice(" \t\n\r") for _ in range(rnd.choice((0, 0, 0, 1, 2))))

    def value(item):
        if isinstance(item, list):
            return space() + "[" + ",".join(value(x) for x in item) + space() + "]" + space()
        return space() + item + space()

    return value(grid)


def _grid(table):
    return [[str(x) for x in row] for row in table]


@st.composite
def spelled_tables(draw, ring):
    """The text of both tables of ``ring``, each perhaps spoiled."""
    rnd = draw(st.randoms(use_true_random=False))
    texts = []
    edits = st.one_of(st.just("none"), st.sampled_from(TABLE_EDITS))
    for table in (ring.add_table, ring.mul_table):
        texts.append(_spell(_edit_table(_grid(table), draw(edits), rnd), rnd))
    return texts


# How the member around a table may be spoiled.
MEMBER_EDITS = ("none", "quoted key", "repeated key", "label", "table in another object")


def _members(add, mul, edit, labels, rnd):
    """The members of a ring object holding the tables' texts ``add`` and
    ``mul``, with ``labels`` as its labels member."""
    members = [f'"add_table": {add}', f'"mul_table" :{mul}']
    if edit == "quoted key":
        members.append(f'"\\"add_table": {add}')
    elif edit == "repeated key":
        members.insert(rnd.randrange(3), f'"mul_table": {add}')
    elif edit == "label":
        labels = ['"add_table":[[0]]'] + list(labels[1:])
    elif edit == "table in another object":
        members.append('"labelled": {"add_table": [[0]]}')
    rnd.shuffle(members)
    return members, labels


def _outcome(call):
    try:
        return call()
    except RingError as err:
        return type(err).__name__, str(err)


def _ring_outcome(path):
    def call():
        ring, endo = formats.load_ring_definition(path)
        return ring.label, ring.add_table, ring.mul_table, ring.element_labels, endo.images

    return _outcome(call)


def _replay_outcome(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["replay", str(path)])
    return code, out.getvalue(), err.getvalue()


def _same_document(path, text):
    """``read_json`` reads ``text`` as json.loads does, or fails alike."""
    got = _outcome(lambda: formats.read_json(path, "doc"))
    with _reference_reader():
        want = _outcome(lambda: formats.read_json(path, "doc"))
    if isinstance(want, tuple) and isinstance(want[0], str):  # an error
        assert got == want
    else:
        assert formats._as_lists(got) == want


SMALL_RINGS = [(n, seed) for n in (1, 2, 3, 4, 6, 8, 9, 12) for seed in (0, 1)]


def _small_ring(n, seed):
    """Z_n, moved by a seeded relabelling (its zero off index 0 for n > 1)."""
    return random_relabeling(make_zmod(n), seed)[0]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), case=st.sampled_from(SMALL_RINGS), edit=st.sampled_from(MEMBER_EDITS),
       product=st.booleans())
def test_definition_tables_read_as_the_reference_reads_them(
    tmp_path_factory, data, case, edit, product
):
    ring = _small_ring(*case)
    add, mul = data.draw(spelled_tables(ring))
    rnd = data.draw(st.randoms(use_true_random=False))
    members, labels = _members(add, mul, edit, ring.element_labels, rnd)
    table_ring = ", ".join(['"kind": "table"', f'"labels": {json.dumps(labels)}', *members])
    if product:  # swap compares the two factor documents
        factors = f"{{{table_ring}}}, {{{table_ring}}}"
        body = f'"kind": "product", "factors": [{factors}], "endomorphism": {{"builtin": "swap"}}'
    else:
        body = table_ring + ', "endomorphism": {"builtin": "identity"}'
    text = '{"schema_version": "1", ' + body + "}"
    path = tmp_path_factory.mktemp("definition") / "ring.json"
    path.write_text(text, encoding="utf-8")
    _same_document(path, text)
    got = _ring_outcome(path)
    with _reference_reader():
        assert got == _ring_outcome(path)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), case=st.sampled_from(SMALL_RINGS), edit=st.sampled_from(MEMBER_EDITS))
def test_record_tables_read_as_the_reference_reads_them(tmp_path_factory, data, case, edit):
    ring = _small_ring(*case)
    rec = json.loads(record_to_json(verdict_to_record(is_reduced(ring), ring, None)))
    add, mul = data.draw(spelled_tables(ring))
    rnd = data.draw(st.randoms(use_true_random=False))
    members, labels = _members(add, mul, edit, rec["ring"]["element_labels"], rnd)
    rec["ring"] = {"label": rec["ring"]["label"], "size": ring.size, "element_labels": labels}
    text = json.dumps(rec)
    ring_text = json.dumps(rec["ring"])
    text = text.replace(ring_text, ring_text[:-1] + ", " + ", ".join(members) + "}")
    path = tmp_path_factory.mktemp("record") / "verdict.json"
    path.write_text(text, encoding="utf-8")
    _same_document(path, text)
    got = _replay_outcome(path)
    with _reference_reader():
        assert got == _replay_outcome(path)


@pytest.mark.parametrize(
    "text",
    ["[[0]]", "[[0,1],[1,0]]", " [ [ 0 ,\t1 ] ,\r\n[1 , 0] ] ", "[[10,2],[999999999999999999,0]]"],
)
def test_table_array_reads_plain_tables(text):
    table = formats._table_array(text)
    assert table.dtype == np.int64 and table.tolist() == json.loads(text)


@pytest.mark.parametrize(
    "text",
    ["[]", "[[]]", "[[0],[]]", "[[0,1],[1]]", "[[0]", "[[[0]]]", "[[01]]", "[[0,00],[1,0]]",
     "[[0 1],[1,0]]", "[[1 1,0],[1,0]]", "[[,0],[1,0]]", "[[0,,1],[1,0,0]]", "[[0,],[1,0]]",
     "[[0],]", "[[1000000000000000000]]", "[[0]]]", "[[0],[1]]"],
)
def test_table_array_refuses_everything_else(text):
    assert formats._table_array(text) is None


def test_tables_of_a_repeated_or_quoted_key_are_read_by_json(tmp_path):
    path = tmp_path / "doc.json"
    for text in (
        '{"kind": "table", "add_table": [[0]], "add_table": [[1]]}',
        '{"kind": "table", "\\"add_table": [[0]], "mul_table": [[0]]}',
        '{"kind": "table", "add_table": [[0]], "mul_table": "\\u0000table0"}',  # a mark's text
    ):
        path.write_text(text)
        doc = formats.read_json(path, "doc")
        assert doc == json.loads(text)
        assert not any(isinstance(v, np.ndarray) for v in doc.values())


def test_only_the_tables_the_readers_take_become_arrays(tmp_path):
    table = {"kind": "table", "add_table": [[0]], "mul_table": [[0]]}
    doc = {
        "kind": "product",
        "factors": [table, {"kind": "quotient", "base": table, "ideal": [0]}],
        "label": table,
        "labels": [table],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    got = formats.read_json(path, "doc")
    arrays = [got["factors"][0], got["factors"][1]["base"]]
    for held in arrays:
        assert all(isinstance(held[key], np.ndarray) for key in ("add_table", "mul_table"))
    for held in (got["label"], got["labels"][0]):
        assert held == table
    record = {"kind": "verdict", "ring": dict(table, label=table)}
    path.write_text(json.dumps(record))
    got = formats.read_json(path, "doc")
    assert isinstance(got["ring"]["mul_table"], np.ndarray) and got["ring"]["label"] == table
    manifest = {"kind": "corpus", "entries": [{"definition": table}]}
    path.write_text(json.dumps(manifest))
    assert formats.read_json(path, "doc") == manifest
