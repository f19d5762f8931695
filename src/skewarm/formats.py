"""Versioned JSON formats: ring-definition documents, verdict records with
replayable witnesses, and the corpus manifest.

The structured format is the stable machine contract (schema_version "1",
sorted keys, compact separators, byte-identical for identical inputs); the
textual renderings elsewhere are human-oriented and unstable.  Verdict
records embed the full ring tables so a witness can be replayed with no
other inputs.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import re

import numpy as np

from .deciders import Envelope, PropertyId, Verdict, Witness
from .skewpoly import _parse_terms, _render_terms
from .rings import (
    Endomorphism,
    FiniteRing,
    RingError,
    frobenius,
    make_direct_product,
    make_galois_field,
    make_ideal,
    make_quotient,
    make_table_ring,
    make_trivial_extension,
    make_zmod,
    regular_bimodule,
    table_endomorphism,
)

SCHEMA_VERSION = "1"

BUILTIN_ENDOMORPHISMS = (
    "identity",
    "negation",
    "swap",
    "negate_second_component",
    "frobenius",
)


class FormatError(RingError):
    """A document does not conform to the schema."""


def _require_keys(doc: dict, required: set[str], optional: set[str], where: str) -> None:
    keys = set(_object(doc, where))
    missing = required - keys
    if missing:
        raise FormatError(f"{where}: missing field(s) {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise FormatError(f"{where}: unknown field(s) {sorted(unknown)}")


# JSON type checks for the fields the readers below take: each returns the
# value when it has the type, and raises FormatError naming the field
# otherwise, so a malformed document never reaches a constructor.

def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"{where} must be an object")
    return value


def _int(value, where: str) -> int:
    if type(value) is not int:  # JSON true/false and 1.5 are not integers
        raise FormatError(f"{where} must be an integer, got {value!r}")
    return value


def _choice(value, choices: tuple[str, ...], where: str) -> str:
    if value not in choices:
        raise FormatError(f"{where} must be one of {list(choices)}, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise FormatError(f"{where} must be a string, got {value!r}")
    return value


def _bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise FormatError(f"{where} must be true or false, got {value!r}")
    return value


def _ints(value, where: str, length: int | None = None) -> list[int]:
    if not isinstance(value, list) or not {type(x) for x in value} <= {int}:
        raise FormatError(f"{where} must be a list of integers")
    if length is not None and len(value) != length:
        raise FormatError(f"{where} must have {length} entries, got {len(value)}")
    return value


def _table(value, where: str) -> np.ndarray:
    """A square table of element indices, given as a list of rows or as the
    array ``read_json`` decoded, as an array.

    numpy's type inference reads a JSON true among integers as 1, so each
    entry of a list of rows has its type tested as well.  An array from
    ``read_json`` was read from digits alone and holds no true or false.
    """
    if isinstance(value, np.ndarray):
        table = value
    else:
        try:
            table = np.array(value if isinstance(value, list) else None)
        except ValueError:  # rows of unequal shapes
            table = np.array(None)
    if table.ndim != 2 or not table.shape[0] == table.shape[1] > 0:
        raise FormatError(f"{where} must be a square table: a list of n lists of n integers")
    if table.dtype.kind not in "iu" or (  # 1.5, "1", null and integers past 64 bits
        isinstance(value, list) and bool in set(map(type, itertools.chain.from_iterable(value)))
    ):
        raise FormatError(f"{where} entries must be integers")
    if not 0 <= table.min() <= table.max() < len(table):
        raise FormatError(f"{where} entries must lie in 0..{len(table) - 1}")
    return table


def _labels(value, where: str) -> list | None:
    if value is not None and not isinstance(value, list):
        raise FormatError(f"{where} must be a list of labels")
    return value


def _build_kind(doc: dict, where: str, size_cap: int):
    kind = _object(doc, where).get("kind")
    if kind == "zmod":
        _require_keys(doc, {"kind", "n"}, set(), where)
        return make_zmod(_int(doc["n"], where + ".n"), size_cap)
    if kind == "product":
        _require_keys(doc, {"kind", "factors"}, set(), where)
        factors = doc["factors"]
        if not isinstance(factors, list) or len(factors) != 2:
            raise FormatError(f"{where}: 'factors' must be a list of two ring documents")
        r1 = _build_kind(factors[0], where + ".factors[0]", size_cap)
        r2 = _build_kind(factors[1], where + ".factors[1]", size_cap)
        return make_direct_product(r1, r2, size_cap)
    if kind == "trivial_extension":
        _require_keys(doc, {"kind", "base"}, set(), where)
        base = _build_kind(doc["base"], where + ".base", size_cap)
        return make_trivial_extension(base, regular_bimodule(base), size_cap)
    if kind == "quotient":
        _require_keys(doc, {"kind", "base", "ideal"}, set(), where)
        base = _build_kind(doc["base"], where + ".base", size_cap)
        ideal = make_ideal(base, _ints(doc["ideal"], where + ".ideal"))
        quot, _ = make_quotient(base, ideal)
        return quot
    if kind == "table":
        _require_keys(doc, {"kind", "add_table", "mul_table"}, {"labels"}, where)
        return make_table_ring(
            _table(doc["add_table"], where + ".add_table"),
            _table(doc["mul_table"], where + ".mul_table"),
            _labels(doc.get("labels"), where + ".labels"),
            size_cap=size_cap,
        )
    if kind == "galois_field":
        _require_keys(doc, {"kind", "p", "k"}, set(), where)
        p, k = _int(doc["p"], where + ".p"), _int(doc["k"], where + ".k")
        return make_galois_field(p, k, size_cap)
    raise FormatError(f"{where}: unknown kind {kind!r}")


def _builtin_endomorphism(ring: FiniteRing, name: str, doc: dict, size_cap: int) -> Endomorphism:
    n = ring.size
    if name == "identity":
        return table_endomorphism(ring, range(n), "identity")
    if name == "negation":
        return table_endomorphism(ring, ring.neg_table, "negation")
    if name == "frobenius":
        return frobenius(ring)
    if name == "swap":
        if doc.get("kind") != "product":
            raise FormatError("'swap' needs a product ring")
        f1, f2 = doc["factors"]
        if _as_lists(f1) != _as_lists(f2):
            raise FormatError("'swap' needs two identical factors")
        m = round(n**0.5)
        if m * m != n:
            raise FormatError("'swap' needs a square carrier")
        return table_endomorphism(
            ring, [(i % m) * m + i // m for i in range(n)], "swap"
        )
    if name == "negate_second_component":
        if doc.get("kind") == "product":
            sub = _build_kind(doc["factors"][1], "factors[1]", size_cap)
        elif doc.get("kind") == "trivial_extension":
            sub = _build_kind(doc["base"], "base", size_cap)
        else:
            raise FormatError(
                "'negate_second_component' needs a product or trivial extension"
            )
        m = sub.size
        images = [(i // m) * m + sub.neg_table[i % m] for i in range(n)]
        return table_endomorphism(ring, images, "negate_second_component")
    raise FormatError(f"unknown builtin endomorphism {name!r}")


def parse_ring_definition(doc: dict, size_cap: int = 256) -> tuple[FiniteRing, Endomorphism | None]:
    """Build (ring, optional endomorphism) from a definition document."""
    if not isinstance(doc, dict):
        raise FormatError("ring definition must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(
            f"unsupported schema_version {doc.get('schema_version')!r}, expected {SCHEMA_VERSION!r}"
        )
    body = {k: v for k, v in doc.items() if k not in ("schema_version", "endomorphism", "label")}
    ring = _build_kind(body, "ring", size_cap)
    if "label" in doc:
        ring = dataclasses.replace(ring, label=_string(doc["label"], "label"))
    endo = None
    if "endomorphism" in doc:
        spec = doc["endomorphism"]
        if not isinstance(spec, dict):
            raise FormatError("'endomorphism' must be an object")
        _require_keys(spec, set(), {"images", "builtin", "label"}, "endomorphism")
        if ("images" in spec) == ("builtin" in spec):
            raise FormatError("'endomorphism' needs exactly one of 'images'/'builtin'")
        label = _string(spec.get("label", "endo"), "endomorphism.label")
        if "images" in spec:
            endo = table_endomorphism(ring, _ints(spec["images"], "endomorphism.images"), label)
        else:
            endo = _builtin_endomorphism(ring, spec["builtin"], body, size_cap)
            if "label" in spec:
                endo = dataclasses.replace(endo, label=label)
    return ring, endo


def load_ring_definition(path, size_cap: int = 256):
    return parse_ring_definition(read_json(path, "ring definition"), size_cap)


def read_json(path, what: str):
    """The JSON document in a file: ``json.loads`` of the text, except that
    each table the readers below pass to ``_table`` (``_table_holders``) is
    an int64 array when ``_table_array`` accepts its text (``_loads``).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _loads(fh.read())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FormatError(f"cannot read {what}: {err}") from err


_TABLE_KEYS = ("add_table", "mul_table")
_TABLE_MEMBER = re.compile(r'"(?:add|mul)_table"[ \t\n\r]*:[ \t\n\r]*(?=\[)')
_TABLE_TEXT = re.compile(r"[0-9,\[\] \t\n\r]*")  # all a table's text can hold


def _loads(text: str):
    """``json.loads(text)``, with the accepted tables as arrays.

    The text of each ``"add_table"`` or ``"mul_table"`` member value that
    starts with "[" is swapped for a placeholder string, and the rest is
    parsed by ``json``.  Each placeholder must come back once, as the
    add_table or mul_table member of an object without a repeated key;
    otherwise (a key spelled ``"\\"add_table"``, a repeated key) the whole
    text is read by ``json.loads`` alone.  A table of ``_table_holders``
    then becomes ``_table_array`` of its text, and any other, or one that
    ``_table_array`` refuses, ``json.loads`` of its text, so ``_table``
    reports a refused table as it reports any list.  A table's text that
    is not JSON has the whole text read again, for json's own error.
    """
    spans = []
    for member in _TABLE_MEMBER.finditer(text):
        start = member.end()
        value = text[start : _TABLE_TEXT.match(text, start).end()].rstrip(" \t\n\r")
        if value.endswith(","):  # the separator before the next member
            value = value[:-1].rstrip(" \t\n\r")
        spans.append((start, start + len(value)))
    if not spans:
        return json.loads(text)
    marks, pieces, end = {}, [], 0
    for start, stop in spans:
        mark = f"\0table{len(marks)}"
        marks[mark] = slice(start, stop)
        pieces += (text[end:start], json.dumps(mark))
        end = stop
    pieces.append(text[end:])
    placed = []

    def restore(pairs):
        obj = dict(pairs)
        for key, value in pairs:
            if type(value) is str and value in marks:
                clean = key in _TABLE_KEYS and len(obj) == len(pairs)
                placed.append((obj, key, value) if clean else None)
        return obj

    try:
        doc = json.loads("".join(pieces), object_pairs_hook=restore)
    except json.JSONDecodeError:
        return json.loads(text)  # or raises, at the position in the file's own text
    if None in placed or len(placed) != len(marks):  # a repeat, or a forged mark
        return json.loads(text)
    holders = {id(obj) for obj in _table_holders(doc)}
    for obj, key, mark in placed:
        table = _table_array(text[marks[mark]]) if id(obj) in holders else None
        if table is None:
            try:
                table = json.loads(text[marks[mark]])
            except json.JSONDecodeError:
                return json.loads(text)
        obj[key] = table
    return doc


def _table_holders(doc) -> list:
    """The objects whose add_table and mul_table members the readers below
    pass to ``_table``: a verdict record's ring, or each table-kind ring of a
    definition, down through product factors and the bases of extensions
    and quotients."""
    if isinstance(doc, dict) and doc.get("kind") == "verdict":
        return [doc.get("ring")]
    holders, stack = [], [doc]
    while stack:
        ring = stack.pop()
        if not isinstance(ring, dict):
            continue
        kind = ring.get("kind")
        if kind == "table":
            holders.append(ring)
        elif kind == "product" and isinstance(ring.get("factors"), list):
            stack += ring["factors"]
        elif kind in ("trivial_extension", "quotient"):
            stack.append(ring.get("base"))
    return holders


# digits as "d" and JSON whitespace as " ", to find whitespace inside a number
_CLASSES = bytes.maketrans(b"0123456789\t\n\r", b"dddddddddd   ")
_DIGITS_APART = re.compile(rb"d +d")


def _table_array(text: str) -> np.ndarray | None:
    """The n × n int64 array that ``text`` spells when it is exactly a JSON
    list of n lists of n unsigned integers below 10^18 without leading
    zeros, with JSON whitespace between tokens; None for any other text of
    ``_TABLE_TEXT``'s characters.

    At byte level: the brackets and commas left once the digits go must be
    an n × n table's; a uint8 view finds empty entries and leading zeros;
    ``np.fromstring`` reads the entries, and one of 19 digits or more reads
    as 10^18 or above.
    """
    dense = text.encode("ascii")
    if any(space in dense for space in (b" ", b"\t", b"\n", b"\r")):
        classes = dense.translate(_CLASSES)
        if b"d " in classes and _DIGITS_APART.search(classes):
            return None
        dense = dense.translate(None, b" \t\n\r")
    skeleton = dense.translate(None, b"0123456789")
    n = skeleton.count(b"[") - 1
    if n < 1 or skeleton != b"[" + b",".join([b"[" + b"," * (n - 1) + b"]"] * n) + b"]":
        return None
    chars = np.frombuffer(dense, dtype=np.uint8)
    digit = chars - ord("0") < 10
    first = digit[1:] > digit[:-1]  # first[i]: an entry starts at i + 1
    if np.count_nonzero(first) != n * n:  # an empty entry
        return None
    first[:-1] &= digit[2:]  # ... and has a second digit
    if (first[:-1] & (chars[1:-1] == ord("0"))).any():  # a leading zero
        return None
    del digit, first  # before the entries are allocated
    entries = np.fromstring(dense.translate(None, b"[]"), dtype=np.int64, sep=",")
    if entries.max() >= 10**18:
        return None
    return entries.reshape(n, n)


def _as_lists(doc):
    """A document with the tables ``read_json`` decoded as arrays back as
    lists of rows."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: _as_lists(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_as_lists(value) for value in doc]
    return doc


# --------------------------------------------------------------------------
# verdict records

def _envelope_to_json(env: Envelope) -> dict:
    out: dict = {}
    if env.exhaustive:
        out["exhaustive"] = True
    if env.degree is not None:
        out["degree"] = env.degree
    if env.window is not None:
        out["window"] = list(env.window)
    if env.truncation is not None:
        out["truncation"] = env.truncation
    if env.min_exp is not None:
        out["min_exp"] = env.min_exp
    return out


def _envelope_from_json(doc) -> Envelope:
    _object(doc, "envelope")
    bounds = {
        key: _int(doc[key], f"envelope.{key}")
        for key in ("degree", "truncation", "min_exp")
        if doc.get(key) is not None
    }
    window = doc.get("window")
    return Envelope(
        window=None if window is None else tuple(_ints(window, "envelope.window", 4)),
        exhaustive=_bool(doc.get("exhaustive", False), "envelope.exhaustive"),
        **bounds,
    )


def _witness_to_json(w: Witness, ring: FiniteRing) -> dict:
    out: dict = {"kind": w.kind}
    if w.p_coeffs is not None:
        out["p"] = {"coeffs": list(w.p_coeffs), "min_exp": w.p_min}
        out["q"] = {"coeffs": list(w.q_coeffs), "min_exp": w.q_min}
        out["p_text"] = _render_terms(ring, tuple(w.p_coeffs), w.p_min)
        out["q_text"] = _render_terms(ring, tuple(w.q_coeffs), w.q_min)
    if w.order is not None:
        out["order"] = w.order
    if w.pair is not None:
        out["pair"] = list(w.pair)
    if w.monomial is not None:
        out["monomial"] = {"r": w.monomial[0], "exponent": w.monomial[1]}
    if w.offending is not None:
        out["offending"] = {
            "index": w.offending,
            "label": ring.element_labels[w.offending]
            if 0 <= w.offending < ring.size
            else None,
        }
    if w.elements is not None:
        out["elements"] = list(w.elements)
    if w.values is not None:
        out["values"] = list(w.values)
    return out


def _witness_from_json(doc) -> Witness:
    _object(doc, "witness")
    p, q = _object(doc.get("p", {}), "witness.p"), _object(doc.get("q", {}), "witness.q")
    for key in ("p_text", "q_text"):
        if not isinstance(doc.get(key, ""), str):
            raise FormatError(f"witness.{key} must be a string")
    order, pair = doc.get("order"), doc.get("pair")
    try:
        mono = doc.get("monomial")
        return Witness(
            kind=doc["kind"],
            p_coeffs=tuple(p["coeffs"]) if "p" in doc else None,
            p_min=_int(p.get("min_exp", 0), "witness.p.min_exp"),
            q_coeffs=tuple(q["coeffs"]) if "q" in doc else None,
            q_min=_int(q.get("min_exp", 0), "witness.q.min_exp"),
            order=None if order is None else _int(order, "witness.order"),
            pair=None if pair is None else tuple(_ints(pair, "witness.pair", 2)),
            monomial=None
            if mono is None
            else (mono["r"], _int(mono["exponent"], "witness.monomial.exponent")),
            offending=doc.get("offending", {}).get("index")
            if isinstance(doc.get("offending"), dict)
            else doc.get("offending"),
            elements=None if doc.get("elements") is None else tuple(doc["elements"]),
            values=None if doc.get("values") is None else tuple(doc["values"]),
        )
    except (KeyError, TypeError) as err:
        raise FormatError(f"malformed witness record: {err}") from err


def verdict_to_record(
    verdict: Verdict, ring: FiniteRing, endo: Endomorphism | None
) -> dict:
    """Self-contained record: embeds the full tables, as the ring's
    read-only arrays, for independent replay.  ``record_to_json`` writes it;
    plain ``json.dumps`` needs ``default=np.ndarray.tolist``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verdict",
        "property": verdict.prop.value,
        "envelope": _envelope_to_json(verdict.envelope),
        "outcome": "holds" if verdict.holds else "fails",
        "ring": {
            "label": ring.label,
            "size": ring.size,
            "add_table": ring.add_array,
            "mul_table": ring.mul_array,
            "element_labels": list(ring.element_labels),
        },
        "endomorphism": None
        if endo is None
        else {"label": endo.label, "images": list(endo.images)},
        "witness": None
        if verdict.witness is None
        else _witness_to_json(verdict.witness, ring),
    }


def record_to_json(rec: dict) -> str:
    """The structured form of a record, byte for byte
    ``json.dumps(rec, sort_keys=True, separators=(",", ":"),
    default=np.ndarray.tolist) + "\\n"``.

    Objects with string keys are written member by member in key order, an
    array that is an n × n table of indices 0..n-1 (the ring tables of
    ``verdict_to_record``) by ``_table_json`` and every other value by
    ``json.dumps``.
    """
    return _to_json(rec) + "\n"


_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist
).encode


def _to_json(value) -> str:
    if isinstance(value, np.ndarray) and _is_table(value):
        return _table_json(value)
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        members = (_encode(key) + ":" + _to_json(value[key]) for key in sorted(value))
        return "{" + ",".join(members) + "}"
    return _encode(value)


def _is_table(array: np.ndarray) -> bool:
    return (
        array.ndim == 2
        and array.shape[0] == array.shape[1] > 0
        and array.dtype.kind in "iu"
        and 0 <= array.min() <= array.max() < len(array)
    )


@functools.cache
def _digits(n: int) -> np.ndarray:
    """Row i: i in decimal as bytes, padded with spaces to the width of
    n - 1, between a space and ", " (the space slots take the row brackets)."""
    width = len(str(n - 1))
    text = "".join(f" {i:<{width}}, " for i in range(n))
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(n, width + 3)


def _table_json(table: np.ndarray) -> str:
    """The compact JSON list of rows of an n × n table of indices 0..n-1:
    every entry's digits gathered from ``_digits`` at once, the row brackets
    written into the space slots, then every space dropped."""
    cells = np.take(_digits(len(table)), table, axis=0)
    cells[:, 0, 0] = ord("[")
    cells[:, -1, -2:] = (ord("]"), ord(","))
    return "[" + cells.tobytes().translate(None, b" ")[:-1].decode("ascii") + "]"


def parse_verdict_record(
    doc: dict
) -> tuple[FiniteRing, Endomorphism | None, PropertyId, Envelope, Witness | None, bool]:
    """Rebuild (ring, endo, property, envelope, witness, holds) from a record."""
    if not isinstance(doc, dict) or doc.get("kind") != "verdict":
        raise FormatError("not a verdict record")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(f"unsupported schema_version {doc.get('schema_version')!r}")
    try:
        prop = PropertyId(doc["property"])
    except (KeyError, ValueError) as err:
        raise FormatError(f"unknown property: {err}") from err
    rdoc = doc.get("ring")
    if not isinstance(rdoc, dict):
        raise FormatError("verdict record lacks the ring tables")
    ring = make_table_ring(
        _table(rdoc.get("add_table"), "ring.add_table"),
        _table(rdoc.get("mul_table"), "ring.mul_table"),
        _labels(rdoc.get("element_labels"), "ring.element_labels"),
        label=_string(rdoc.get("label", "ring"), "ring.label"),
    )
    endo = None
    edoc = doc.get("endomorphism")
    if edoc is not None:
        images = _ints(_object(edoc, "endomorphism").get("images"), "endomorphism.images")
        label = _string(edoc.get("label", "endo"), "endomorphism.label")
        endo = table_endomorphism(ring, images, label)
    env = _envelope_from_json(doc.get("envelope", {}))
    holds = _choice(doc.get("outcome"), OUTCOMES, "outcome") == "holds"
    witness = None
    if doc.get("witness") is not None:
        witness = _witness_from_json(doc["witness"])
        _check_witness_ranges(witness, ring.size)
    if not holds and witness is None:
        raise FormatError("failing verdict without a witness")
    return ring, endo, prop, env, witness, holds


def _check_witness_ranges(w: Witness, size: int) -> None:
    indices = list(w.p_coeffs or ()) + list(w.q_coeffs or ())
    indices += list(w.elements or ()) + list(w.values or ())
    if w.monomial is not None:
        indices.append(w.monomial[0])
    if w.offending is not None:
        indices.append(w.offending)
    for idx in indices:
        if isinstance(idx, bool):  # a JSON true or false is not an index
            raise FormatError(f"witness references {json.dumps(idx)}, not an element index")
        if not isinstance(idx, int) or not 0 <= idx < size:
            raise FormatError(f"witness references element index {idx} outside 0..{size - 1}")


def witness_text_consistent(ring: FiniteRing, wdoc: dict) -> bool:
    """Whether the textual renderings in a witness record parse back to the
    recorded coefficient indices (the text format is accepted for replay)."""
    for key in ("p", "q"):
        text = wdoc.get(f"{key}_text")
        if text is None:
            continue
        sub = wdoc.get(key) or {}
        coeffs = sub.get("coeffs", ())
        mn = sub.get("min_exp", 0)
        expected = {
            mn + i: c for i, c in enumerate(coeffs) if c != ring.zero
        }
        try:
            if _parse_terms(ring, text) != expected:
                return False
        except RingError:
            return False
    return True


# --------------------------------------------------------------------------
# corpus manifest

OUTCOMES = ("holds", "fails")
PROVENANCES = ("literature", "trivial", "computed")


@dataclasses.dataclass(frozen=True)
class Expectation:
    prop: PropertyId
    envelope: Envelope
    holds: bool
    provenance: str
    confirm_witness: Witness | None = None


@dataclasses.dataclass(frozen=True)
class CorpusEntry:
    name: str
    description: str
    ring: FiniteRing
    endo: Endomorphism
    definition: dict
    expected: tuple[Expectation, ...]
    exploratory: bool = False


def parse_manifest_entry(doc: dict) -> CorpusEntry:
    _require_keys(
        doc,
        {"name", "definition", "expectations"},
        {"description", "exploratory"},
        "corpus entry",
    )
    name = _string(doc["name"], "corpus entry.name")
    ring, endo = parse_ring_definition(doc["definition"])
    if endo is None:
        raise FormatError(f"corpus entry {name!r} lacks an endomorphism")
    if not isinstance(doc["expectations"], list):
        raise FormatError("corpus entry: 'expectations' must be a list")
    expected = []
    for edoc in doc["expectations"]:
        _require_keys(
            edoc,
            {"property", "envelope", "outcome", "provenance"},
            {"confirm_witness"},
            "expectation",
        )
        try:
            prop = PropertyId(edoc["property"])
        except ValueError as err:
            raise FormatError(f"unknown property: {err}") from err
        outcome = _choice(edoc["outcome"], OUTCOMES, "expectation.outcome")
        expected.append(
            Expectation(
                prop=prop,
                envelope=_envelope_from_json(edoc["envelope"]),
                holds=outcome == "holds",
                provenance=_choice(edoc["provenance"], PROVENANCES, "expectation.provenance"),
                confirm_witness=None
                if edoc.get("confirm_witness") is None
                else _witness_from_json(edoc["confirm_witness"]),
            )
        )
    return CorpusEntry(
        name=name,
        description=_string(doc.get("description", ""), "corpus entry.description"),
        ring=ring,
        endo=endo,
        definition=doc["definition"],
        expected=tuple(expected),
        exploratory=_bool(doc.get("exploratory", False), "corpus entry.exploratory"),
    )


def load_manifest(path) -> list[CorpusEntry]:
    doc = read_json(path, "corpus manifest")
    if (
        not isinstance(doc, dict)
        or doc.get("kind") != "corpus"
        or doc.get("schema_version") != SCHEMA_VERSION
        or not isinstance(doc.get("entries"), list)
    ):
        raise FormatError("not a corpus manifest")
    return [parse_manifest_entry(e) for e in doc["entries"]]
