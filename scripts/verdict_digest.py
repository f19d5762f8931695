"""Print one verdict record per request over a fixed grid of requests.

    python3 scripts/verdict_digest.py > digest.jsonl

Run it from a source checkout (it imports ``skewarm`` from ``src/``).  Two
checkouts that print the same lines decide every request of the grid alike:
same verdicts, same least witnesses, same refusals.  So comparing a change
against its parent is one ``diff`` of two digests.

The grid: the corpus rings plus GF(16) (Frobenius), Z8, T(Z4)
((a,b) -> (a,2b)) and UT2(Z2) ⊕ Z2 (((a,b,c),z) -> ((0,0,z),c)), each
as built and under two relabellings that move the zero off its index, and
each with its own twist (if it has one), the identity and the zero map.
Every carrier runs every bounded-degree property at degree 0, 1 and 2, the
Laurent property on six windows, the power-series property at truncation
1, 2 and 3 and the Laurent-series property at truncation 1 and 2 from x^-1.

Each line is a JSON object with the request and either the
``verdict_to_record`` record, ``"blocked"`` (the budget refused it) or the
error that refused it.  Every failing witness is replayed; a witness that
does not replay stops the run with an error.  So does a request that a
fresh copy of its twist decides otherwise: every request on one twist
object shares the tables the searches derive from it, and the copy shares
none.  So does a record whose ``record_to_json`` bytes (what ``skewarm
check --format structured`` prints) differ from ``json.dumps`` with sorted
keys and compact separators, or whose file ``formats.read_json`` reads
back other than ``json.loads`` does (its tables as arrays of the same
entries, the rest equal).  A failing request is followed by a second line
with the request and the witness lines ``skewarm check`` prints
(``cli._witness_text``), so the classes' ``render`` is compared too.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from skewarm import (  # noqa: E402
    BudgetExceededError,
    PropertyId,
    RingError,
    check_property,
    frobenius,
    identity_endomorphism,
    make_direct_product,
    make_galois_field,
    make_table_ring,
    make_trivial_extension,
    make_zmod,
    regular_bimodule,
    relabel_ring,
    replay_witness,
    table_endomorphism,
    transport,
    zero_endomorphism,
)
from skewarm.cli import _witness_text  # noqa: E402
from skewarm.corpus import all_entries  # noqa: E402
from skewarm.deciders import FAMILY_PROPERTIES  # noqa: E402
from skewarm.formats import (  # noqa: E402
    read_json,
    record_to_json,
    verdict_to_record,
)

WINDOWS = ((0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1), (0, 2, 0, 2), (2, 0, 0, 0), (0, 0, 2, 0))
RELABEL_SEEDS = (1, 2)


def ut2_plus_z2():
    """UT2(Z2) ⊕ Z2, (a,b,c) at index 4a+2b+c, with ((a,b,c),z) -> ((0,0,z),c):
    preperiod 1, period 2."""
    tri = list(itertools.product(range(2), repeat=3))

    def index(a, b, c):
        return 4 * (a % 2) + 2 * (b % 2) + c % 2

    add = [[index(x[0] + y[0], x[1] + y[1], x[2] + y[2]) for y in tri] for x in tri]
    mul = [[index(x[0] * y[0], x[0] * y[1] + x[1] * y[2], x[2] * y[2]) for y in tri] for x in tri]
    ring = make_direct_product(make_table_ring(add, mul, label="UT2(Z2)"), make_zmod(2))
    return ring, table_endomorphism(ring, (0, 2, 1, 3) * 4, "swap-corner")


def base_rings():
    """(name, ring, its twist or None) for every ring of the grid."""
    rings = [(e.name, e.ring, e.endo) for e in all_entries()]
    gf16 = make_galois_field(2, 4)
    rings.append(("gf16", gf16, frobenius(gf16)))
    # Z8 has no endomorphism besides the identity and the zero map
    rings.append(("z8", make_zmod(8), None))
    z4 = make_zmod(4)
    tz4 = make_trivial_extension(z4, regular_bimodule(z4))
    # (a,b) -> (a,2b): preperiod 2, period 1
    double = [(i // 4) * 4 + 2 * i % 4 for i in range(16)]
    rings.append(("t(z4)", tz4, table_endomorphism(tz4, double, "double-second")))
    rings.append(("ut2(z2)+z2", *ut2_plus_z2()))
    return rings


def zero_moved(ring, seed):
    """A seeded relabelling of ``ring`` whose zero is not at its old index."""
    perm = list(range(ring.size))
    random.Random(seed).shuffle(perm)
    if perm[ring.zero] == ring.zero:
        perm = perm[1:] + perm[:1]
    return relabel_ring(ring, perm)


def carriers():
    """(name, form, ring, endo name, endo) over the grid."""
    for name, ring, twist in base_rings():
        forms = [("built", ring, None)]
        forms += [(f"relabelled-{s}", *zero_moved(ring, s)) for s in RELABEL_SEEDS]
        endos = [("twist", twist)] if twist is not None else []
        endos += [("identity", identity_endomorphism(ring)), ("zero", zero_endomorphism(ring))]
        for form, r, sigma in forms:
            for endo_name, endo in endos:
                yield name, form, r, endo_name, endo if sigma is None else transport(sigma, endo)


def envelopes():
    """(property, envelope keywords) for every request on one carrier."""
    for prop in sorted(FAMILY_PROPERTIES, key=lambda p: p.value):
        for degree in (0, 1, 2):
            yield prop, {"degree": degree}
    for window in WINDOWS:
        yield PropertyId.LAURENT_Q_ALPHA_SKEW, {"window": window}
    for truncation in (1, 2, 3):
        yield PropertyId.POWERSERIES_Q_ALPHA_SKEW, {"truncation": truncation}
    for truncation in (1, 2):
        yield PropertyId.LAURENT_POWERSERIES_Q_ALPHA_SKEW, {"truncation": truncation, "min_exp": -1}


def compact(value) -> str:
    """``value`` as compact JSON with sorted keys, the tables of a record
    (read-only arrays) as lists of rows."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)


def check_read_back(text: str, path: Path) -> None:
    """Write a record's text to ``path`` and raise unless ``read_json`` reads
    its tables as int64 arrays of the entries ``json.loads`` reads, and the
    rest of the document as ``json.loads`` does."""
    path.write_text(text, encoding="utf-8")
    doc = read_json(path, "verdict record")
    expected = json.loads(text)
    for key in ("add_table", "mul_table"):
        table = doc["ring"].pop(key)
        if not isinstance(table, np.ndarray) or table.tolist() != expected["ring"].pop(key):
            raise AssertionError(f"read_json reads {key} other than json.loads: {text[:200]}")
    if doc != expected:
        raise AssertionError(f"read_json reads a record other than json.loads: {text[:200]}")


def decide(ring, endo, prop, envelope):
    """The verdict, or the refusal: "blocked" (the budget) or the error."""
    try:
        return check_property(ring, endo, prop, **envelope)
    except BudgetExceededError:
        return "blocked"
    except RingError as err:
        return f"{type(err).__name__}: {err}"


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        return digest(Path(scratch) / "record.json")


def digest(record_path: Path) -> int:
    for name, form, ring, endo_name, endo in carriers():
        for prop, envelope in envelopes():
            line = {
                "ring": name,
                "form": form,
                "endomorphism": endo_name,
                "property": prop.value,
                "envelope": envelope,
            }
            verdict = decide(ring, endo, prop, envelope)
            fresh = table_endomorphism(ring, endo.images, endo.label)
            if decide(ring, fresh, prop, envelope) != verdict:
                raise AssertionError(f"a fresh copy of the twist decides otherwise: {line}")
            if verdict == "blocked":
                line["blocked"] = True
            elif isinstance(verdict, str):
                line["error"] = verdict
            else:
                line["record"] = record = verdict_to_record(verdict, ring, endo)
                text = record_to_json(record)
                if text != compact(record) + "\n":
                    raise AssertionError(f"record_to_json differs from json.dumps: {line}")
                check_read_back(text, record_path)
            print(compact(line))
            if "record" in line and not verdict.holds:
                replay_witness(ring, endo, prop, verdict.witness)
                del line["record"]
                line["witness_text"] = _witness_text(ring, endo, prop, verdict.witness)
                print(compact(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
