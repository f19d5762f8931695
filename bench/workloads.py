"""The four workloads: inputs made from the seed, the op list of one pass,
and each op's frozen expected outcome.

An op is one user-level request.  ``prepare`` builds the op list of one
pass; every pass draws fresh relabellings from (workload, seed, pass, op), so
no request repeats across passes and a verdict memo can only hit where a
workload itself repeats a request (``corpus``).  An op returns ``None`` when
its outcome matches the expectation and a reason string when it does not;
an op that raises is counted as failed by the caller.

Expected outcomes are isomorphism-invariant, so a relabelling seed never
changes them: "holds", "fails" or "blocked" for decider requests, plus the
exit code for command-line requests (0 holds, 1 fails, 3 budget exceeded).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

BUDGET = 10**8
EXIT = {"holds": 0, "fails": 1, "blocked": 3}

# --------------------------------------------------------------------------
# corpus: `skewarm corpus --all --deg 2`, one op per harness call.  The
# implication matrix runs entry by entry; its loop body shares nothing
# between entries, so this is the same work as the single call the command
# makes.  Frozen per op: (report ok, PASS lines, FAIL lines, note lines).

CORPUS_DEGREE = 2
CORPUS_TRANSPORT_SEEDS = 3
CORPUS_EXPECTED = {
    ("expectations", "example1"): (True, 6, 0, 0),
    ("expectations", "example2"): (True, 6, 0, 0),
    ("expectations", "example4"): (True, 4, 0, 0),
    ("expectations", "example5_r1"): (True, 4, 0, 0),
    ("expectations", "example5_r2"): (True, 4, 0, 0),
    ("expectations", "gf4_frobenius"): (True, 5, 0, 0),
    ("expectations", "example3_analogue"): (True, 5, 0, 0),
    ("implication", "example1"): (True, 3, 0, 0),
    ("implication", "example2"): (True, 4, 0, 0),
    ("implication", "example4"): (True, 4, 0, 0),
    ("implication", "example5_r1"): (True, 4, 0, 0),
    ("implication", "example5_r2"): (True, 4, 0, 0),
    ("implication", "gf4_frobenius"): (True, 10, 0, 0),
    ("implication", "example3_analogue"): (True, 0, 0, 1),
    ("transport", "example1"): (True, 1, 0, 0),
    ("transport", "example2"): (True, 1, 0, 0),
    ("transport", "example4"): (True, 1, 0, 0),
    ("transport", "example5_r1"): (True, 1, 0, 0),
    ("transport", "example5_r2"): (True, 1, 0, 0),
    ("transport", "gf4_frobenius"): (True, 1, 0, 0),
    ("transport", "example3_analogue"): (True, 1, 0, 0),
}
CORPUS_SMOKE = ("example1", "example2", "example5_r2", "gf4_frobenius")

# --------------------------------------------------------------------------
# envelope-holds: holding verdicts, so every op exhausts its envelope.
# (ring, property, envelope, expected)

ENVELOPE_HOLDS = [
    *[
        (ring, prop, {"degree": 2}, "holds")
        for ring in ("example4", "example5_r1")
        for prop in (
            "alpha-armendariz",
            "alpha-skew-armendariz",
            "q-alpha-armendariz",
            "q-alpha-skew-armendariz",
            "alpha-quasi-armendariz",
        )
    ],
    ("example5_r2", "q-alpha-skew-armendariz", {"degree": 4}, "holds"),
    ("gf16_frobenius", "q-alpha-skew-armendariz", {"degree": 2}, "holds"),
    *[
        ("example3_analogue", prop, {"degree": 1}, "holds")
        for prop in (
            "armendariz",
            "alpha-armendariz",
            "alpha-skew-armendariz",
            "quasi-armendariz",
            "q-alpha-armendariz",
            "q-alpha-skew-armendariz",
            "alpha-quasi-armendariz",
        )
    ],
    ("example4", "laurent-q-alpha-skew", {"window": (1, 1, 1, 1)}, "holds"),
    ("example4", "powerseries-q-alpha-skew", {"truncation": 3}, "holds"),
    ("example4", "laurent-powerseries-q-alpha-skew", {"truncation": 2, "min_exp": -1}, "holds"),
    ("example4_zero", "q-alpha-skew-armendariz", {"degree": 2}, "holds"),
]
ENVELOPE_SMOKE = ("example3_analogue",)

# --------------------------------------------------------------------------
# witness-roundtrip: failing requests through the command line, each on its
# own relabelled table-kind definition: write it, `check --format
# structured`, then `replay` the record.  (ring, property, degree, budget,
# expected); element properties have no degree.

WITNESS_REQUESTS = [
    ("example1", "alpha-armendariz", 1, None, "fails"),
    ("example1", "alpha-armendariz", 2, None, "fails"),
    ("example1", "alpha-skew-armendariz", 1, None, "fails"),
    ("example1", "alpha-skew-armendariz", 2, None, "fails"),
    ("example1", "domain", None, None, "fails"),
    ("example1", "rigid", None, None, "fails"),
    ("example2", "armendariz", 1, None, "fails"),
    ("example2", "alpha-armendariz", 1, None, "fails"),
    ("example2", "alpha-skew-armendariz", 1, None, "fails"),
    ("example2", "quasi-armendariz", 1, None, "fails"),
    ("example2", "q-alpha-armendariz", 1, None, "fails"),
    ("example2", "q-alpha-skew-armendariz", 1, None, "fails"),
    ("example2", "alpha-quasi-armendariz", 1, None, "fails"),
    ("example2", "alpha-armendariz", 2, None, "fails"),
    ("example2", "alpha-skew-armendariz", 2, None, "fails"),
    ("example2", "q-alpha-skew-armendariz", 2, None, "fails"),
    ("example2", "reduced", None, None, "fails"),
    ("example2", "rigid", None, None, "fails"),
    ("example4", "commutative", None, None, "fails"),
    ("example4", "reversible", None, None, "fails"),
    ("example4", "reduced", None, None, "fails"),
    ("example1*example1", "alpha-armendariz", 1, None, "fails"),
    ("example1*example1", "alpha-armendariz", 2, None, "fails"),
    ("example1*example1", "alpha-skew-armendariz", 1, None, "fails"),
    ("example1*example1", "alpha-skew-armendariz", 2, None, "fails"),
    ("example1*example4", "alpha-armendariz", 1, None, "fails"),
    ("example1*example4", "commutative", None, None, "fails"),
    ("example4*example1", "alpha-armendariz", 1, None, "fails"),
    ("example4*example1", "alpha-skew-armendariz", 1, None, "fails"),
    ("example4*example1", "reversible", None, None, "fails"),
    ("example1*example2", "alpha-armendariz", 1, None, "fails"),
    ("example1*example2", "reduced", None, None, "fails"),
    ("example2*example1", "alpha-armendariz", 1, None, "fails"),
    ("example2*example1", "domain", None, None, "fails"),
    ("example1*example1*example1", "alpha-armendariz", 1, None, "fails"),
    ("example1*example1*example1", "rigid", None, None, "fails"),
    ("example2", "q-alpha-skew-armendariz", 1, 10, "blocked"),
    ("example4", "alpha-skew-armendariz", 2, 100, "blocked"),
    ("example1*example2", "alpha-armendariz", 1, 1000, "blocked"),
]
WITNESS_COPIES = 2  # relabellings of each request per pass
WITNESS_SMOKE = ("example1", "example2")

# --------------------------------------------------------------------------
# carrier-build: `validate` and `check` at the 256-element size cap, where
# table validation and the element predicates do the work.  Definitions:
# builtin kinds, plus a relabelled table-kind ring made by the benchmark.
# (ring, property or None for `validate`, expected)

CARRIER_DEFINITIONS = {
    "gf256_frobenius": {
        "kind": "galois_field",
        "p": 2,
        "k": 8,
        "endomorphism": {"builtin": "frobenius"},
    },
    "t_z16": {
        "kind": "trivial_extension",
        "base": {"kind": "zmod", "n": 16},
        "endomorphism": {"builtin": "negate_second_component"},
    },
    "z16_z16_swap": {
        "kind": "product",
        "factors": [{"kind": "zmod", "n": 16}, {"kind": "zmod", "n": 16}],
        "endomorphism": {"builtin": "swap"},
    },
}
CARRIER_SIZES = {"gf256_frobenius": 256, "t_z16": 256, "z16_z16_swap": 256, "upper_row": 128}
CARRIER_REQUESTS = [
    ("gf256_frobenius", None, "holds"),
    ("gf256_frobenius", "symmetric", "holds"),
    ("gf256_frobenius", "rigid", "holds"),
    ("t_z16", None, "holds"),
    ("t_z16", "reduced", "fails"),
    ("t_z16", "semicommutative", "holds"),
    ("t_z16", "symmetric", "holds"),
    ("t_z16", "rigid", "fails"),
    ("z16_z16_swap", None, "holds"),
    ("z16_z16_swap", "domain", "fails"),
    ("z16_z16_swap", "reversible", "holds"),
    ("z16_z16_swap", "symmetric", "holds"),
    ("z16_z16_swap", "rigid", "fails"),
    ("upper_row", None, "holds"),
    ("upper_row", "reduced", "fails"),
    ("upper_row", "domain", "fails"),
    ("upper_row", "commutative", "fails"),
    ("upper_row", "semicommutative", "holds"),
    ("upper_row", "reversible", "fails"),
    ("upper_row", "symmetric", "holds"),
    ("upper_row", "rigid", "fails"),
]
CARRIER_SMOKE = ("upper_row",)


# --------------------------------------------------------------------------
# input generation


def _rng(workload: str, seed: int, pass_index: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}:{index}")


def _permutation(n: int, zero: int, rng: random.Random) -> list[int]:
    """A random carrier permutation that moves the zero to a nonzero index."""
    perm = list(range(n))
    rng.shuffle(perm)
    if n > 1 and perm[zero] == 0:
        other = (zero + 1) % n
        perm[zero], perm[other] = perm[other], perm[zero]
    return perm


def _relabelled_table_doc(add, mul, labels, images, perm, label: str) -> dict:
    """A table-kind definition of the ring moved through ``perm``."""
    n = len(perm)
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x

    def move(table):
        return [[perm[row[j]] for j in inv] for row in (table[i] for i in inv)]

    return {
        "schema_version": "1",
        "kind": "table",
        "add_table": move(add),
        "mul_table": move(mul),
        "labels": [labels[i] for i in inv],
        "endomorphism": {"images": [perm[images[i]] for i in inv]},
        "label": label,
    }


def _upper_row_tables(m: int, k: int):
    """{(a, b) : a in Z_m, b in Z_k} with (a,b)(c,d) = (ac, ad), k | m, and
    the endomorphism (a, b) -> (a, -b): a noncommutative ring without
    identity, built here so the program only ever sees the table."""
    n = m * k
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for i in range(n):
        a, b = divmod(i, k)
        for j in range(n):
            c, d = divmod(j, k)
            add[i][j] = ((a + c) % m) * k + (b + d) % k
            mul[i][j] = ((a * c) % m) * k + (a * d) % k
    labels = [f"({a},{b})" for a in range(m) for b in range(k)]
    images = [(i // k) * k + (-(i % k)) % k for i in range(n)]
    return add, mul, labels, images


def _cli(prog, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = prog.cli.main(argv)
    return code, out.getvalue()


def _check_and_replay(prog, definition, record, prop, extra, expected: str):
    """`check --format structured`, then `replay` on a failing record."""
    code, out = _cli(
        prog, ["check", definition, "--property", prop, *extra, "--format", "structured"]
    )
    if code != EXIT[expected]:
        return f"check exited {code}, expected {EXIT[expected]} ({expected})"
    if expected == "blocked":
        return None
    if f'"outcome":"{expected}"' not in out:
        return f"structured record does not say {expected}"
    if expected == "holds":
        return None
    with open(record, "w", encoding="utf-8") as fh:
        fh.write(out)
    code, out = _cli(prog, ["replay", record])
    if code != 0 or "witness reproduced exactly" not in out:
        return f"replay exited {code}: {out.strip()}"
    return None


class Corpus:
    name = "corpus"

    def prepare(self, prog, seed, pass_index, workdir, smoke=False):
        manifest = resources.files(prog.package).joinpath("data/corpus.json")
        with resources.as_file(manifest) as path:
            entries = prog.formats.load_manifest(path)
        if smoke:
            entries = [e for e in entries if e.name in CORPUS_SMOKE]
        harness = prog.corpus
        calls = {
            "expectations": lambda e: harness.run_expectations(e, BUDGET),
            "implication": lambda e: harness.run_implication_matrix(
                [e], degree=CORPUS_DEGREE, budget=BUDGET
            ),
            "transport": lambda e: harness.run_transport_consistency(
                e, seeds=range(CORPUS_TRANSPORT_SEEDS), degree=1, budget=BUDGET
            ),
        }
        ops = []
        for kind, call in calls.items():
            for entry in entries:
                want = CORPUS_EXPECTED[(kind, entry.name)]
                ops.append((f"{kind}:{entry.name}", self._op(call, entry, want)))
        return ops

    @staticmethod
    def _op(call, entry, want):
        def op():
            report = call(entry)
            got = (
                report.ok,
                sum(line.startswith("PASS ") for line in report.lines),
                sum(line.startswith("FAIL ") for line in report.lines),
                sum(line.startswith("     ") for line in report.lines),
            )
            if got != want:
                return f"report (ok, pass, fail, notes) {got}, expected {want}"
            return None

        return op


class EnvelopeHolds:
    name = "envelope-holds"

    def prepare(self, prog, seed, pass_index, workdir, smoke=False):
        entries = {e.name: e for e in prog.corpus.all_entries()}
        rings = prog.rings
        bases = {name: (e.ring, e.endo) for name, e in entries.items()}
        gf16 = rings.make_galois_field(2, 4)
        bases["gf16_frobenius"] = (gf16, rings.frobenius(gf16))
        ex4 = entries["example4"].ring
        bases["example4_zero"] = (ex4, rings.zero_endomorphism(ex4))
        ops = []
        for index, (ring_name, prop, envelope, expected) in enumerate(ENVELOPE_HOLDS):
            if smoke and ring_name not in ENVELOPE_SMOKE:
                continue
            ring, endo = bases[ring_name]
            perm = _permutation(ring.size, ring.zero, _rng(self.name, seed, pass_index, index))
            moved, sigma = rings.relabel_ring(ring, perm)
            moved_endo = rings.transport(sigma, endo)
            label = f"{ring_name}:{prop}:{envelope}"
            ops.append((label, self._op(prog, moved, moved_endo, prop, envelope, expected)))
        return ops

    @staticmethod
    def _op(prog, ring, endo, prop, envelope, expected):
        prop_id = prog.deciders.PropertyId(prop)

        def op():
            verdict = prog.deciders.check_property(ring, endo, prop_id, budget=BUDGET, **envelope)
            got = "holds" if verdict.holds else "fails"
            return None if got == expected else f"verdict {got}, expected {expected}"

        return op


class WitnessRoundtrip:
    name = "witness-roundtrip"

    def _bases(self, prog):
        entries = {e.name: e for e in prog.corpus.all_entries()}
        bases = {
            name: (entries[name].ring, entries[name].endo)
            for name in ("example1", "example2", "example4")
        }
        rings = prog.rings

        def product(left, right):
            (ra, ea), (rb, eb) = bases[left], bases[right]
            ring = rings.make_direct_product(ra, rb)
            bases[f"{left}*{right}"] = (ring, rings.product_endomorphism(ring, ea, eb))

        product("example1", "example1")
        product("example1", "example4")
        product("example4", "example1")
        product("example1", "example2")
        product("example2", "example1")
        product("example1*example1", "example1")
        return bases

    def prepare(self, prog, seed, pass_index, workdir, smoke=False):
        bases = self._bases(prog)
        requests = [r for r in WITNESS_REQUESTS if not smoke or r[0] in WITNESS_SMOKE]
        copies = 1 if smoke else WITNESS_COPIES
        ops = []
        for copy in range(copies):
            for number, (ring_name, prop, degree, budget, expected) in enumerate(requests):
                index = copy * len(requests) + number
                ring, endo = bases[ring_name]
                perm = _permutation(ring.size, ring.zero, _rng(self.name, seed, pass_index, index))
                doc = _relabelled_table_doc(
                    ring.add_table,
                    ring.mul_table,
                    ring.element_labels,
                    endo.images,
                    perm,
                    ring_name,
                )
                extra = []
                if degree is not None:
                    extra += ["--deg", str(degree)]
                if budget is not None:
                    extra += ["--budget", str(budget)]
                label = f"{ring_name}:{prop}:{degree}:{budget}#{copy}"
                op = self._op(prog, workdir, index, json.dumps(doc), prop, extra, expected)
                ops.append((label, op))
        return ops

    @staticmethod
    def _op(prog, workdir, index, text, prop, extra, expected):
        definition = str(workdir / f"ring-{index}.json")
        record = str(workdir / f"verdict-{index}.json")

        def op():
            with open(definition, "w", encoding="utf-8") as fh:
                fh.write(text)
            return _check_and_replay(prog, definition, record, prop, extra, expected)

        return op


class CarrierBuild:
    name = "carrier-build"

    def prepare(self, prog, seed, pass_index, workdir, smoke=False):
        add, mul, labels, images = _upper_row_tables(16, 8)
        perm = _permutation(len(add), 0, _rng(self.name, seed, pass_index, 0))
        docs = {
            name: {"schema_version": "1", "label": name, **doc}
            for name, doc in CARRIER_DEFINITIONS.items()
        }
        docs["upper_row"] = _relabelled_table_doc(add, mul, labels, images, perm, "upper_row")
        paths = {}
        for name, doc in docs.items():
            paths[name] = str(workdir / f"{name}-{pass_index}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        ops = []
        for index, (ring_name, prop, expected) in enumerate(CARRIER_REQUESTS):
            if smoke and ring_name not in CARRIER_SMOKE:
                continue
            record = str(workdir / f"verdict-{index}.json")
            op = self._op(prog, paths[ring_name], record, ring_name, prop, expected)
            ops.append((f"{ring_name}:{prop or 'validate'}", op))
        return ops

    @staticmethod
    def _op(prog, definition, record, ring_name, prop, expected):
        size = CARRIER_SIZES[ring_name]

        def op():
            if prop is not None:
                return _check_and_replay(prog, definition, record, prop, [], expected)
            code, out = _cli(prog, ["validate", definition])
            if code != 0 or f"elements: {size}\n" not in out:
                return f"validate exited {code}: {out.strip()}"
            return None

        return op


WORKLOADS = {w.name: w for w in (Corpus(), EnvelopeHolds(), WitnessRoundtrip(), CarrierBuild())}
