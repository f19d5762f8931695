import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import skewarm
from skewarm import PropertyId, check_property, formats
from skewarm.cli import main
from skewarm.corpus import all_entries

EX1 = {
    "schema_version": "1",
    "kind": "product",
    "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 2}],
    "endomorphism": {"builtin": "swap"},
    "label": "example1",
}
EX2 = {
    "schema_version": "1",
    "kind": "trivial_extension",
    "base": {"kind": "zmod", "n": 4},
    "endomorphism": {"builtin": "negate_second_component"},
    "label": "example2",
}


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(EX1))
    return str(path)


@pytest.fixture
def ex2_file(tmp_path):
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(EX2))
    return str(path)


def test_validate_example1(ex1_file, capsys):
    assert main(["validate", ex1_file]) == 0
    out = capsys.readouterr().out
    assert "size 4, unital, automorphism, orbit (0,2)" in out


def test_validate_malformed_kind(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": "1", "kind": "mystery"}))
    assert main(["validate", str(path)]) == 2


def test_validate_broken_table(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "kind": "table",
                "add_table": [[0, 1], [1, 0]],
                "mul_table": [[1, 0], [0, 0]],
            }
        )
    )
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "(" in err  # the violating instance is spelled out


def test_check_example2_fails_with_witness(ex2_file, capsys):
    assert main(["check", ex2_file, "--property", "q-alpha-skew-armendariz", "--deg", "1"]) == 1
    out = capsys.readouterr().out
    assert "fails" in out and "offending value" in out


def test_check_example1_reduced_holds(ex1_file):
    assert main(["check", ex1_file, "--property", "reduced"]) == 0


def test_check_budget_exceeded(ex2_file, capsys):
    assert main(["check", ex2_file, "--property", "q-alpha-skew-armendariz", "--deg", "9"]) == 3
    assert "budget" in capsys.readouterr().err


def test_check_requires_envelope(ex1_file, capsys):
    assert main(["check", ex1_file, "--property", "q-alpha-skew-armendariz"]) == 2
    assert main(["check", ex1_file, "--property", "laurent-q-alpha-skew"]) == 2
    assert main(["check", ex1_file, "--property", "powerseries-q-alpha-skew"]) == 2


def test_check_unknown_property(ex1_file, capsys):
    assert main(["check", ex1_file, "--property", "mystery"]) == 2


def test_structured_roundtrip_through_replay(ex2_file, tmp_path, capsys):
    code = main(
        [
            "check",
            ex2_file,
            "--property",
            "q-alpha-skew-armendariz",
            "--deg",
            "1",
            "--format",
            "structured",
        ]
    )
    assert code == 1
    record = capsys.readouterr().out
    vfile = tmp_path / "verdict.json"
    vfile.write_text(record)
    assert main(["replay", str(vfile)]) == 0


def test_structured_output_is_deterministic(ex2_file, capsys):
    args = [
        "check",
        ex2_file,
        "--property",
        "alpha-skew-armendariz",
        "--deg",
        "1",
        "--format",
        "structured",
    ]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_structured_check_prints_the_record_of_verdict_to_record(tmp_path, capsys):
    definition = {"schema_version": "1", "kind": "galois_field", "p": 2, "k": 8,
                  "endomorphism": {"builtin": "frobenius"}}
    path = tmp_path / "gf256.json"
    path.write_text(json.dumps(definition))
    assert main(["check", str(path), "--property", "rigid", "--format", "structured"]) == 0
    out = capsys.readouterr().out
    ring, endo = formats.load_ring_definition(path)
    verdict = check_property(ring, endo, PropertyId.RIGID)
    assert out == formats.record_to_json(formats.verdict_to_record(verdict, ring, endo))
    assert json.loads(out)["ring"]["size"] == 256


def test_replay_rejects_tampered_record(ex2_file, tmp_path, capsys):
    main(
        [
            "check",
            ex2_file,
            "--property",
            "q-alpha-skew-armendariz",
            "--deg",
            "1",
            "--format",
            "structured",
        ]
    )
    record = json.loads(capsys.readouterr().out)
    record["witness"]["offending"]["index"] = record["ring"]["add_table"][0][0]
    vfile = tmp_path / "tampered.json"
    vfile.write_text(json.dumps(record))
    assert main(["replay", str(vfile)]) == 1


def test_replay_rejects_inconsistent_text_rendering(ex2_file, tmp_path, capsys):
    main(
        [
            "check",
            ex2_file,
            "--property",
            "q-alpha-skew-armendariz",
            "--deg",
            "1",
            "--format",
            "structured",
        ]
    )
    record = json.loads(capsys.readouterr().out)
    record["witness"]["p_text"] = "(1,1) + (1,1)*x"
    vfile = tmp_path / "text_tamper.json"
    vfile.write_text(json.dumps(record))
    assert main(["replay", str(vfile)]) == 1
    assert "textual rendering" in capsys.readouterr().out


def test_corpus_all_quick(capsys):
    assert main(["corpus", "--all", "--deg", "1", "--transport-seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "exploratory, skipped" in out


def test_replay_rejects_out_of_range_index(ex2_file, tmp_path, capsys):
    main(
        [
            "check",
            ex2_file,
            "--property",
            "q-alpha-skew-armendariz",
            "--deg",
            "1",
            "--format",
            "structured",
        ]
    )
    record = json.loads(capsys.readouterr().out)
    record["witness"]["p"]["coeffs"][0] = 999
    vfile = tmp_path / "oob.json"
    vfile.write_text(json.dumps(record))
    assert main(["replay", str(vfile)]) == 2


def test_replay_of_a_property_that_reads_alpha_needs_the_endomorphism(
    ex2_file, tmp_path, capsys
):
    # example2's armendariz witness relabelled as alpha-armendariz, and its
    # holding q-alpha-skew verdict at degree 0, each with no endomorphism:
    # check refuses such a request, and so does replay
    for checked, deg, code, renamed in (
        ("armendariz", "1", 1, "alpha-armendariz"),
        ("q-alpha-skew-armendariz", "0", 0, "q-alpha-skew-armendariz"),
    ):
        assert main(["check", ex2_file, "--property", checked, "--deg", deg,
                     "--format", "structured"]) == code
        record = json.loads(capsys.readouterr().out)
        record["property"] = renamed
        record["endomorphism"] = None
        vfile = tmp_path / "renamed.json"
        vfile.write_text(json.dumps(record))
        assert main(["replay", str(vfile)]) == 2
        assert capsys.readouterr().err == f"error: {renamed} needs an endomorphism\n"
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({k: v for k, v in EX2.items() if k != "endomorphism"}))
    assert main(["check", str(bare), "--property", "alpha-armendariz", "--deg", "1"]) == 2
    assert capsys.readouterr().err == "error: alpha-armendariz needs an endomorphism\n"


def test_negative_transport_seeds_are_invalid_input(capsys):
    assert main(["corpus", "--all", "--transport-seeds", "-2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: --transport-seeds must be nonnegative, got -2\n"


def test_corpus_single_entry(capsys):
    assert main(["corpus", "--entry", "example2", "--deg", "1"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_corpus_unknown_entry(capsys):
    assert main(["corpus", "--entry", "nope"]) == 2


def test_corpus_dump_definition(capsys):
    assert main(["corpus", "--dump-definition", "example1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "product"


@pytest.mark.parametrize("from_file", [False, True])
def test_corpus_dump_definition_of_a_table_ring_is_json(tmp_path, capsys, from_file):
    """A table-kind definition read from the built-in manifest, or from the
    same manifest passed by --manifest, prints as JSON: the entry's
    definition as the corpus module builds it."""
    argv = ["corpus", "--dump-definition", "example4"]
    if from_file:
        path = tmp_path / "corpus.json"
        path.write_text(resources.files("skewarm").joinpath("data/corpus.json").read_text())
        argv += ["--manifest", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr()
    entry = next(e for e in all_entries() if e.name == "example4")
    expected = dict(entry.definition, schema_version="1")
    assert expected["kind"] == "table"
    assert out.out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert out.err == ""


def test_budget_env_var(ex2_file, monkeypatch, capsys):
    monkeypatch.setenv("SKEWARM_TUPLE_BUDGET", "10")
    assert main(["check", ex2_file, "--property", "q-alpha-skew-armendariz", "--deg", "1"]) == 3


def test_negative_budget_is_invalid_input(ex2_file, monkeypatch, capsys):
    args = ["check", ex2_file, "--property", "armendariz", "--deg", "1"]
    assert main(args + ["--budget", "-5"]) == 2
    assert "--budget must be nonnegative, got -5" in capsys.readouterr().err
    monkeypatch.setenv("SKEWARM_TUPLE_BUDGET", "-1")
    assert main(args) == 2
    assert "SKEWARM_TUPLE_BUDGET must be nonnegative, got -1" in capsys.readouterr().err
    # zero is a valid budget that no search fits under
    assert main(args + ["--budget", "0"]) == 3


def test_check_laurent_and_series(ex1_file):
    assert (
        main(
            [
                "check",
                ex1_file,
                "--property",
                "laurent-q-alpha-skew",
                "--window",
                "1,1,1,1",
            ]
        )
        == 0
    )
    assert (
        main(["check", ex1_file, "--property", "powerseries-q-alpha-skew", "--trunc", "2"])
        == 0
    )


@pytest.mark.parametrize(
    "prop, message",
    [
        ("q-alpha-skew-armendariz", "q-alpha-skew-armendariz needs a degree bound"),
        ("laurent-q-alpha-skew", "laurent-q-alpha-skew needs a window (m,n,t,s)"),
        ("powerseries-q-alpha-skew", "powerseries-q-alpha-skew needs a truncation order"),
        (
            "laurent-powerseries-q-alpha-skew",
            "laurent-powerseries-q-alpha-skew needs a truncation order",
        ),
    ],
)
def test_check_names_the_missing_envelope(ex1_file, capsys, prop, message):
    # the envelope each property needs is decided by check_property alone
    assert main(["check", ex1_file, "--property", prop]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "prop, flags, unread",
    [
        ("reduced", ["--deg", "1"], "--deg"),
        ("rigid", ["--trunc", "2"], "--trunc"),
        ("armendariz", ["--deg", "1", "--window", "1,1,1,1"], "--window"),
        ("q-alpha-skew-armendariz", ["--deg", "1", "--trunc", "2"], "--trunc"),
        ("laurent-q-alpha-skew", ["--window", "1,1,1,1", "--deg", "5"], "--deg"),
        ("laurent-q-alpha-skew", ["--window", "1,1,1,1", "--min-exp", "-1"], "--min-exp"),
        ("powerseries-q-alpha-skew", ["--trunc", "2", "--min-exp", "-1"], "--min-exp"),
        ("powerseries-q-alpha-skew", ["--trunc", "2", "--deg", "1"], "--deg"),
        (
            "laurent-powerseries-q-alpha-skew",
            ["--trunc", "2", "--min-exp", "-1", "--window", "1,1,1,1"],
            "--window",
        ),
    ],
)
def test_check_rejects_envelope_flags_the_property_does_not_read(
    ex1_file, capsys, prop, flags, unread
):
    assert main(["check", ex1_file, "--property", prop, *flags]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {prop} does not read {unread}\n"


def test_check_laurent_series_reads_trunc_and_min_exp(ex1_file):
    args = ["check", ex1_file, "--property", "laurent-powerseries-q-alpha-skew", "--trunc", "2"]
    assert main(args + ["--min-exp", "-1"]) == 0



Z2_ADD = [[0, 1], [1, 0]]
Z2_MUL = [[0, 0], [0, 1]]


def _table(add, mul):
    return {"kind": "table", "add_table": add, "mul_table": mul}


def _quotient(ideal):
    return {"kind": "quotient", "base": {"kind": "zmod", "n": 4}, "ideal": ideal}


def _edit(*path, value=None):
    """An edit of a verdict record: set the field at ``path`` to ``value``,
    or delete it when ``value`` is None."""

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        if value is None:
            del doc[path[-1]]
        else:
            doc[path[-1]] = value

    return edit


MALFORMED_DEFINITIONS = [
    {"kind": "zmod", "n": "abc"},
    {"kind": "zmod", "n": None},
    {"kind": "product", "factors": [1, 2]},
    {"kind": "trivial_extension", "base": [1]},
    _table([[0, 1], [1]], Z2_MUL),
    _table("ab", Z2_MUL),
    _table(Z2_ADD, [[0, 0], [0, 1.5]]),  # 1.5 must not read as 1
    _table(Z2_ADD, [[0, 0], [0, 10**30]]),  # beyond any machine integer
    _table(Z2_ADD, [[0, 0], [0, True]]),  # true must not read as 1
    _quotient([0, "a"]),
    _quotient(5),
    {"kind": "galois_field", "p": 2, "k": "x"},
    dict(EX1, endomorphism={"images": "0123"}),  # a string is not four images
]
FAMILY_CHECK = ("--property", "q-alpha-skew-armendariz", "--deg", "1")
ELEMENT_CHECK = ("--property", "reduced")
# (the check whose structured record is edited, the edit)
MALFORMED_RECORD_EDITS = [
    (FAMILY_CHECK, _edit("witness", value=[1, 2])),
    (FAMILY_CHECK, _edit("ring", "add_table")),
    (FAMILY_CHECK, _edit("endomorphism", "images")),
    (FAMILY_CHECK, _edit("witness", "pair", value=["a", 0])),
    (FAMILY_CHECK, _edit("witness", "pair", value=[0])),
    (FAMILY_CHECK, _edit("witness", "p", "min_exp", value="x")),
    (FAMILY_CHECK, _edit("envelope", value=[1])),
    (ELEMENT_CHECK, _edit("envelope", "exhaustive", value="no")),
    (ELEMENT_CHECK, _edit("outcome", value="hold")),
    (FAMILY_CHECK, _edit("ring", "add_table", 0, 0, value=False)),  # false must not read as 0
    # a JSON true or false is not an element index
    (FAMILY_CHECK, _edit("witness", "pair", value=[True, 0])),
    (FAMILY_CHECK, _edit("witness", "p", "coeffs", value=[True])),
    (FAMILY_CHECK, _edit("witness", "q", "coeffs", value=[False, 1])),
    (ELEMENT_CHECK, _edit("witness", "elements", value=[True])),
    (ELEMENT_CHECK, _edit("witness", "values", value=[False])),
]

_ENTRY = {"name": "e", "definition": dict(EX1, schema_version="1"), "expectations": []}
_MYSTERY = {"property": "mystery", "envelope": {}, "outcome": "holds", "provenance": ""}
_REDUCED = {"property": "reduced", "envelope": {}, "outcome": "holds", "provenance": "computed"}


def _manifest(expectation=None, **entry):
    """A one-entry manifest with ``_ENTRY``'s fields replaced by ``entry``
    and its one expectation ``_REDUCED``'s replaced by ``expectation``."""
    expectations = [dict(_REDUCED, **(expectation or {}))]
    entry = dict(_ENTRY, expectations=expectations, **entry)
    return {"schema_version": "1", "kind": "corpus", "entries": [entry]}


MALFORMED_MANIFESTS = [
    [1],
    {"schema_version": "1", "kind": "corpus", "entries": 5},
    {"schema_version": "1", "kind": "corpus", "entries": [dict(_ENTRY, expectations=5)]},
    {"schema_version": "1", "kind": "corpus", "entries": [dict(_ENTRY, expectations=[_MYSTERY])]},
    _manifest({"outcome": "hold"}),
    _manifest({"provenance": "folklore"}),
    _manifest({"envelope": {"exhaustive": "no"}}),
    _manifest(exploratory="no"),
    _manifest(name=["x"]),
]


@pytest.mark.parametrize(
    "command, bad",
    [("validate", d) for d in MALFORMED_DEFINITIONS]
    + [("replay", e) for e in MALFORMED_RECORD_EDITS]
    + [("corpus", m) for m in MALFORMED_MANIFESTS],
)
def test_malformed_document_is_invalid_input(ex2_file, tmp_path, capsys, command, bad):
    path = tmp_path / "bad.json"
    argv = [command, str(path)]
    if command == "validate":
        doc = {"schema_version": "1", **bad}
    elif command == "corpus":
        doc, argv = bad, [command, "--all", "--manifest", str(path)]
    else:
        check, edit = bad
        assert main(["check", ex2_file, *check, "--format", "structured"]) == 1
        doc = json.loads(capsys.readouterr().out)
        edit(doc)
    path.write_text(json.dumps(doc))
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "Traceback" not in out.out + out.err


NOT_UTF8 = {
    "validate": ["validate", "{}"],
    "check": ["check", "{}", "--property", "reduced"],
    "replay": ["replay", "{}"],
    "corpus": ["corpus", "--all", "--manifest", "{}"],
}


@pytest.mark.parametrize("command", list(NOT_UTF8))
def test_a_file_that_is_not_utf8_is_invalid_input(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff{}")
    assert main([a.format(path) for a in NOT_UTF8[command]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: cannot read ") and out.err.count("\n") == 1
    assert "0xff" in out.err


@pytest.mark.parametrize("command", ["validate", "replay"])
def test_json_boolean_table_entry_is_refused(ex2_file, tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    if command == "validate":
        doc = {"schema_version": "1", **_table(Z2_ADD, [[0, 0], [0, True]])}
        where = "ring.mul_table"
    else:
        args = ["check", ex2_file, "--property", "q-alpha-skew-armendariz", "--deg", "1"]
        assert main(args + ["--format", "structured"]) == 1
        doc = json.loads(capsys.readouterr().out)
        doc["ring"]["add_table"][0][0] = bool(doc["ring"]["add_table"][0][0])
        where = "ring.add_table"
    path.write_text(json.dumps(doc, indent=1))
    assert main([command, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {where} entries must be integers\n"


# Envelopes whose price has more digits than an int prints by default, or
# whose block list alone would never end; (arguments after the definition,
# the price as the message words it).
HUGE = {
    "deg-5000": (["--property", "alpha-armendariz", "--deg", "5000"], "9^10002"),
    "trunc-3000": (["--property", "powerseries-q-alpha-skew", "--trunc", "3000"], "9^6000"),
    "window-3000": (
        ["--property", "laurent-q-alpha-skew", "--window", "0,3000,0,3000"],
        "9^6002",
    ),
    "deg-1e20": (
        ["--property", "alpha-armendariz", "--deg", "99999999999999999999"],
        "9^200000000000000000000",
    ),
}


def run_cli(args, cwd):
    """The command line in a child process, so that a hang fails the test
    at its time limit."""
    src = str(Path(skewarm.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "skewarm.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": src},
    )


@pytest.fixture
def ex4_file(tmp_path, capsys):
    assert main(["corpus", "--dump-definition", "example4"]) == 0
    path = tmp_path / "ex4.json"
    path.write_text(capsys.readouterr().out)
    return str(path)


@pytest.mark.parametrize("case", list(HUGE))
def test_huge_envelopes_exit_3_with_one_line(ex4_file, tmp_path, case):
    args, price = HUGE[case]
    proc = run_cli(["check", ex4_file, *args], tmp_path)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        f"budget exceeded: search space of {price} coefficient tuples exceeds the budget of "
        "100000000\n"
    )


def test_a_price_that_prints_is_printed_in_full(ex4_file, capsys):
    args = ["check", ex4_file, "--property", "alpha-armendariz", "--deg", "400"]
    assert main(args) == 3
    assert capsys.readouterr().err == (
        f"budget exceeded: search space of {9**802} coefficient tuples exceeds the budget of "
        "100000000\n"
    )


def test_corpus_at_a_huge_degree_finds_its_feasible_degrees(tmp_path):
    proc = run_cli(["corpus", "--all", "--deg", "2500"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "hypothesis not established (budget)" in proc.stdout
