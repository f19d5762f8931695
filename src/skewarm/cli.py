"""Command-line front door.

Subcommands: ``validate`` a ring-definition file, ``check`` a property,
``replay`` a structured verdict record, and ``corpus`` for the built-in
entries with their consistency harness.

Exit codes are a stable contract: 0 holds/pass, 1 fails/witness,
2 invalid input, 3 budget exceeded.  The ``--format structured`` output is
versioned and byte-stable; the text output is human-oriented.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import corpus as corpus_mod
from . import deciders as dec
from . import formats
from .deciders import PropertyId
from .rings import RingError, SizeCapError, endo_orbit

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

BUDGET_ENV_VAR = "SKEWARM_TUPLE_BUDGET"

# check's envelope flags, by the argument of check_property each one sets
_ENVELOPE_FLAGS = {
    "degree": "--deg", "window": "--window", "truncation": "--trunc", "min_exp": "--min-exp"
}


def _budget(args) -> int:
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        env = os.environ.get(BUDGET_ENV_VAR)
        if not env:
            return dec.DEFAULT_TUPLE_BUDGET
        try:
            budget, source = int(env), BUDGET_ENV_VAR
        except ValueError as err:
            raise formats.FormatError(f"bad {BUDGET_ENV_VAR}: {err}") from err
    if budget < 0:
        raise formats.FormatError(f"{source} must be nonnegative, got {budget}")
    return budget


def _witness_text(ring, endo, prop: PropertyId, witness: dec.Witness) -> list[str]:
    lines = []
    labels = ring.element_labels
    if witness.kind == "elements":
        lines.append(
            "violating elements: "
            + ", ".join(labels[e] for e in witness.elements or ())
        )
        if witness.values:
            lines.append(
                "certifying products: " + ", ".join(labels[v] for v in witness.values)
            )
        return lines
    p, q = dec._witness_polys(ring, endo, witness)
    lines.append(f"p = {p.render()}")
    lines.append(f"q = {q.render()}")
    if witness.pair is not None:
        lines.append(f"violated coefficient pair (i, j) = {witness.pair}")
    if witness.monomial is not None:
        r, e = witness.monomial
        lines.append(f"sandwich element r = {labels[r]}, twist exponent {e}")
    if witness.offending is not None:
        lines.append(f"offending value = {labels[witness.offending]} (nonzero)")
    return lines


def cmd_validate(args) -> int:
    ring, endo = formats.load_ring_definition(args.file)
    print(f"ring: {ring.label}")
    print(f"elements: {ring.size}")
    if ring.is_unital:
        print(f"one: {ring.element_labels[ring.one]}")
    if endo is not None:
        t, p = endo_orbit(endo)
        kind = "automorphism" if endo.is_automorphism else "endomorphism"
        print(f"endomorphism: {endo.label} ({kind})")
        if endo.preserves_one is not None:
            print(f"preserves one: {'yes' if endo.preserves_one else 'no'}")
        summary = (
            f"size {ring.size}, {'unital' if ring.is_unital else 'non-unital'}, "
            f"{kind}, orbit ({t},{p})"
        )
    else:
        summary = f"size {ring.size}, {'unital' if ring.is_unital else 'non-unital'}"
    print(summary)
    return EXIT_HOLDS


def _parse_window(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise formats.FormatError("--window needs four comma-separated integers m,n,t,s")
    try:
        m, n, t, s = (int(x) for x in parts)
    except ValueError as err:
        raise formats.FormatError(f"bad --window: {err}") from err
    return m, n, t, s


def cmd_check(args) -> int:
    try:
        prop = PropertyId(args.property)
    except ValueError:
        raise formats.FormatError(
            f"unknown property {args.property!r}; choose from: "
            + ", ".join(p.value for p in PropertyId)
        ) from None
    envelope = dict(
        degree=args.deg, window=args.window, truncation=args.trunc, min_exp=args.min_exp
    )
    for arg, value in envelope.items():
        if value is not None and arg not in dec.envelope_args(prop):
            raise formats.FormatError(f"{prop.value} does not read {_ENVELOPE_FLAGS[arg]}")
    ring, endo = formats.load_ring_definition(args.file)
    if args.window is not None:
        envelope["window"] = _parse_window(args.window)
    verdict = dec.check_property(ring, endo, prop, budget=_budget(args), **envelope)
    if args.format == "structured":
        sys.stdout.write(formats.record_to_json(formats.verdict_to_record(verdict, ring, endo)))
    else:
        print(verdict.describe())
        if not verdict.holds:
            twist = dec._twist_for(ring, endo, prop)
            for line in _witness_text(ring, twist, prop, verdict.witness):
                print("  " + line)
    return EXIT_HOLDS if verdict.holds else EXIT_FAILS


def cmd_replay(args) -> int:
    doc = formats.read_json(args.file, "verdict record")
    ring, endo, prop, _env, witness, holds = formats.parse_verdict_record(doc)
    dec._twist_for(ring, endo, prop)  # refuses, holding or not, what check refuses
    if holds:
        print("verdict records a holding outcome; nothing to replay")
        return EXIT_HOLDS
    if not formats.witness_text_consistent(ring, doc.get("witness") or {}):
        print("witness does not reproduce: textual rendering disagrees with the coefficients")
        return EXIT_FAILS
    try:
        dec.replay_witness(ring, endo, prop, witness)
    except dec.ReplayMismatch as err:
        print(f"witness does not reproduce: {err}")
        return EXIT_FAILS
    print("witness reproduced exactly")
    return EXIT_HOLDS


def _load_entries(args) -> list[formats.CorpusEntry]:
    if args.manifest is not None:
        return formats.load_manifest(args.manifest)
    return corpus_mod.all_entries()


def cmd_corpus(args) -> int:
    if args.dump_definition is not None:
        entries = _load_entries(args)
        for entry in entries:
            if entry.name == args.dump_definition:
                print(json.dumps(entry.definition, indent=2, sort_keys=True))
                return EXIT_HOLDS
        raise formats.FormatError(f"unknown corpus entry {args.dump_definition!r}")
    entries = _load_entries(args)
    if args.entry is not None:
        chosen = [e for e in entries if e.name == args.entry]
        if not chosen:
            raise formats.FormatError(f"unknown corpus entry {args.entry!r}")
        entries = chosen
    elif not args.all:
        raise formats.FormatError("pass --all or --entry NAME")
    budget = _budget(args)
    if args.transport_seeds < 0:
        raise formats.FormatError(
            f"--transport-seeds must be nonnegative, got {args.transport_seeds}"
        )
    report = corpus_mod.Report()
    for entry in entries:
        report.extend(corpus_mod.run_expectations(entry, budget))
    if args.all:
        report.extend(
            corpus_mod.run_implication_matrix(entries, degree=args.deg, budget=budget)
        )
        for entry in entries:
            report.extend(
                corpus_mod.run_transport_consistency(
                    entry, seeds=range(args.transport_seeds), degree=1, budget=budget
                )
            )
    for line in report.lines:
        print(line)
    print(("all checks passed" if report.ok else "FAILURES detected"))
    return EXIT_HOLDS if report.ok else EXIT_FAILS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use;
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="skewarm",
        description=(
            "Finite rings with endomorphisms: construct, validate, and decide "
            "Armendariz-type annihilator conditions with replayable witnesses."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="construct and validate a ring definition")
    p_val.add_argument("file", help="ring-definition JSON file")
    p_val.set_defaults(fn=cmd_validate)

    p_chk = sub.add_parser("check", help="decide a property of a defined ring")
    p_chk.add_argument("file", help="ring-definition JSON file")
    p_chk.add_argument("--property", required=True, help="property identifier")
    p_chk.add_argument("--deg", type=int, help="degree bound for polynomial properties")
    p_chk.add_argument("--window", help="Laurent window m,n,t,s")
    p_chk.add_argument("--trunc", type=int, help="series truncation order")
    p_chk.add_argument(
        "--min-exp", type=int, dest="min_exp", help="lower exponent for Laurent series"
    )
    p_chk.add_argument("--format", choices=("text", "structured"), default="text")
    p_chk.add_argument("--budget", type=int, help="tuple budget override")
    p_chk.set_defaults(fn=cmd_check)

    p_rep = sub.add_parser("replay", help="replay a structured verdict's witness")
    p_rep.add_argument("file", help="verdict record JSON file")
    p_rep.set_defaults(fn=cmd_replay)

    p_cor = sub.add_parser("corpus", help="run the built-in corpus and harness")
    group = p_cor.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="run every entry plus the harness")
    group.add_argument("--entry", help="run a single entry's expectations")
    group.add_argument(
        "--dump-definition", help="print an entry's ring-definition document"
    )
    p_cor.add_argument(
        "--deg", type=int, default=2, help="implication-matrix degree (read only with --all)"
    )
    p_cor.add_argument(
        "--transport-seeds",
        type=int,
        default=3,
        help="relabelling seeds per entry in the transport check (read only with --all)",
    )
    p_cor.add_argument("--manifest", help="override the built-in corpus manifest")
    p_cor.add_argument("--budget", type=int, help="tuple budget override")
    p_cor.set_defaults(fn=cmd_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except dec.BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except SizeCapError as err:
        print(f"size cap: {err}", file=sys.stderr)
        return EXIT_INVALID
    except (formats.FormatError, RingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
