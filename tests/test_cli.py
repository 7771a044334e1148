import argparse
import gc
import json
import math
import os
import random
import subprocess
import sys
import warnings
from collections import Counter

import pytest

from geomorph import cli, paradigm
from geomorph import report as rpt
from geomorph.cli import main
from geomorph.composition import AngleModel, seeded_random
from geomorph.paradigm import ParadigmFile
from test_report import built_in, loaded
from test_rotation_lanes import MULTI_FEATURE
from test_sweep import _cli_sweep

# exit codes under test: 0 ok, 1 input error, 2 not converged, 3 tie in gold eval


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_select_english(capsys):
    code, out, _ = run(capsys, "select", "english_weak_verb", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    i = data["activations"]["row_labels"].index("present,3,sg")
    row = data["activations"]["entries"][i]
    assert row == pytest.approx([1.167, 1.731, 0.615], abs=0.005)
    assert data["winners"][i] == "s"
    assert data["mismatches"] == []


def test_select_latin_reports_tie_exit(capsys):
    code, out, _ = run(capsys, "select", "latin_adjectives", "--format", "json")
    assert code == 3
    data = json.loads(out)
    assert data["ties"] == ["pl,neu,acc"]


def test_train_german(capsys):
    code, out, _ = run(capsys, "train", "german_full", "--eta", "0.1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["converged"] is True and data["iterations"] == 1


def test_train_exit_when_not_converged(capsys):
    code, out, _ = run(
        capsys, "train", "latin_adjectives", "--max-iters", "1", "--format", "json"
    )
    assert code == 2


def test_init_single_and_classes(capsys):
    code, out, _ = run(capsys, "init", "english_weak_verb", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["exponents"]["col_labels"] == ["0", "s", "ed"]

    code, out, _ = run(capsys, "init", "nuer_classes", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["base_class"] == "III"


def test_compose_authored_angles(capsys):
    code, out, _ = run(capsys, "compose", "spanish_verbs", "--format", "json")
    assert code == 0
    data = json.loads(out)
    got = {(s["stem"], s["slot"]): s["selected"] for s in data["selections"]}
    assert got[("cant", "second")] == "as"
    assert got[("com", "second")] == "es"
    assert got[("cant", "first")] == "o" and got[("com", "first")] == "o"
    assert "ties" not in data  # only a report with a tie has the section


def test_compose_learns_when_unpositioned(capsys):
    code, out, _ = run(
        capsys, "compose", "german_plurals", "--seed", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["converged"] is True and data["failures"] == 0


# Kind + a and Kind + b are both exactly 0.25 rad from the pl axis
TIED_COMPOSITION = ("FEATURE number: sg pl\nPLANE pl sg\nSTEM Kind @ 0.0\nAFFIX a @ 0.5\n"
                    "AFFIX b @ -0.5\nAFFIX c @ 1.5707963267948966\n"
                    "FORM Kind pl -> {}\nFORM Kind sg -> c\n")


@pytest.mark.parametrize("gold", ["b", "a"])
def test_compose_reports_a_tie_and_exits_three(tmp_path, capsys, gold):
    path = tmp_path / "tie.par"
    path.write_text(TIED_COMPOSITION.format(gold), encoding="utf-8")
    code, out, _ = run(capsys, "compose", str(path), "--format", "json")
    assert code == 3
    data = json.loads(out)
    assert data["ties"] == ["Kind,pl"] and data["failures"] == 1
    got = {s["slot"]: s["selected"] for s in data["selections"]}
    assert got == {"pl": None, "sg": "c"}
    code, out, _ = run(capsys, "compose", str(path))
    assert code == 3 and f"{gold}\t-\tpl\tKind" in out.splitlines()


def test_rotate_runs_992_classes(tmp_path, capsys):
    """A class file of 992 classes runs: no class count limits the run keys."""
    blocks = "".join(f"CLASS C{k} LEXEMES 1\nCELL sg -> 0\nCELL pl -> s\nEND\n"
                     for k in range(992))
    path = tmp_path / "classes.par"
    path.write_text(f"FEATURE number: sg pl\nMORPHEMES: 0 s\n{blocks}", encoding="utf-8")
    code, out, _ = run(capsys, "rotate", str(path), "--max-iters", "0", "--min-lexemes", "1",
                       "--format", "json")
    assert code == 0 and len(json.loads(out)["classes"]) == 992


def test_rotate_small_batch(capsys):
    code, out, _ = run(
        capsys, "rotate", "nuer_classes", "--runs", "2", "--seed", "7", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["base_class"] == "III"
    assert len(data["classes"]) == 16
    assert all(c["converged_runs"] >= 1 for c in data["classes"])


def test_missing_input_is_exit_one(capsys):
    code, _, err = run(capsys, "select", "no_such_fixture")
    assert code == 1 and "error" in err


def test_wrong_fixture_kind_is_clean_exit_one(capsys):
    for fixture in ("german_plurals", "nuer_classes"):
        code, _, err = run(capsys, "select", fixture)
        assert code == 1
        assert "cell table" in err


def test_corrupt_saved_report_is_clean_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "report", str(bad))
    assert code == 1 and "error" in err
    # only the integer 1 is schema 1: true and 1.0 compare equal to it, but are not it
    for schema in ("99", "true", "1.0"):
        bad.write_text('{"schema": %s}' % schema)
        code, out, err = run(capsys, "report", str(bad))
        assert (code, out) == (1, "") and "unsupported report schema" in err
    for text in ("[1]", '"s"', "null"):
        bad.write_text(text)
        code, out, err = run(capsys, "report", str(bad))
        assert (code, out, err) == (1, "", "error: a saved report must be a JSON object\n")
    # a hand-edited matrix section: labels that are not strings, entries of the wrong shape
    for labels, entries in (('[1]', '[[1]]'), ('["r"]', '[1]'), ('["r", "s"]', '[[1]]')):
        bad.write_text('{"schema": 1, "m": {"row_labels": %s, "col_labels": ["a"], '
                       '"entries": %s}}' % (labels, entries))
        code, out, err = run(capsys, "report", str(bad))
        assert (code, out) == (1, "") and err.startswith("error: matrix 'm' needs ")
    # a list is a table only when every item is a dict, else one JSON value
    bad.write_text('{"schema": 1, "x": [{"a": 1}, 2], "y": [{"b": 0.5}]}')
    code, out, _ = run(capsys, "report", str(bad))
    assert (code, out) == (0, 'x\t[{"a": 1}, 2]\n# y\nb\n0.500000\n')


def test_bad_env_seed_is_clean_exit_one(capsys, monkeypatch):
    monkeypatch.setenv("GEOMORPH_SEED", "not-a-number")
    code, _, err = run(capsys, "compose", "german_plurals")
    assert code == 1 and "GEOMORPH_SEED" in err


# 10**400 is past any float; at 2**70 the weighted counts are past 2**53, no longer exact
@pytest.mark.parametrize("lexemes", [10**400, 2**70])
@pytest.mark.parametrize("command", ["init", "rotate"])
def test_huge_lexeme_count_is_clean_exit_one(tmp_path, capsys, command, lexemes):
    path = tmp_path / "huge.par"
    path.write_text("FEATURE number: sg pl\nMORPHEMES: a b\n"
                    f"CLASS A LEXEMES {lexemes}\nCELL sg -> a\nCELL pl -> b\nEND\n")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "") and err.startswith("error: lexeme counts too large: ")


def test_json_reports_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main(["rotate", "nuer_classes", "--runs", "1", "--seed", "5",
                     "--format", "json", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("GEOMORPH_SEED", "5")
    assert main(["rotate", "nuer_classes", "--runs", "1", "--format", "json",
                 "--out", str(a)]) == 0
    monkeypatch.delenv("GEOMORPH_SEED")
    assert main(["rotate", "nuer_classes", "--runs", "1", "--seed", "5",
                 "--format", "json", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_rerenders_saved_json(tmp_path, capsys):
    saved = tmp_path / "run.json"
    assert main(["select", "english_weak_verb", "--format", "json",
                 "--out", str(saved)]) == 0
    code, out, _ = run(capsys, "report", str(saved))
    assert code == 0
    assert "# activations" in out
    assert "1.732051" in out  # 6-decimal TSV


def test_indented_report_rerenders_like_one_line(tmp_path, capsys):
    # reports saved by earlier versions are indented
    code, out, _ = run(capsys, "train", "german_full", "--format", "json")
    assert code == 0
    one_line, indented = tmp_path / "one_line.json", tmp_path / "indented.json"
    one_line.write_text(out, encoding="utf-8")
    indented.write_text(json.dumps(json.loads(out), sort_keys=True, indent=2,
                                   ensure_ascii=False) + "\n", encoding="utf-8")
    rendered = [run(capsys, "report", str(path)) for path in (one_line, indented)]
    assert rendered[0][0] == 0 and rendered[0] == rendered[1]
    assert rendered[0][1] == run(capsys, "train", "german_full")[1]


def test_tsv_matrix_has_labels_and_six_decimals(capsys):
    code, out, _ = run(capsys, "select", "russian_class_one")
    assert code == 0
    header = [l for l in out.splitlines() if l.startswith("\t")][0]
    assert header.split("\t")[1:] == ["0", "a", "e", "u", "om", "y", "ov", "ax", "am", "ami"]
    assert "1.224745" in out


def test_report_round_trip_is_lossless(tmp_path):
    saved = tmp_path / "run.json"
    assert main(["train", "german_full", "--format", "json", "--out", str(saved)]) == 0
    text = saved.read_text(encoding="utf-8")
    data = rpt.loads(text)
    assert rpt.dumps(data) == text


def test_parse_error_positions_surface(tmp_path, capsys):
    bad = tmp_path / "bad.par"
    bad.write_text("FEATURE number: sg pl\nMORPHEMES: 0\nCELL du -> 0\n")
    code, _, err = run(capsys, "select", str(bad))
    assert code == 1
    assert "line 3" in err


def test_train_trace_is_json_lines(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["train", "latin_adjectives", "--trace", str(trace),
                 "--out", str(tmp_path / "r.json"), "--format", "json"]) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) >= 2
    records = [json.loads(l) for l in lines]
    assert records[0]["iteration"] == 1
    assert records[-1]["mismatches"] == 0


def test_rotate_emits_plans_when_asked(capsys):
    code, out, _ = run(capsys, "rotate", "nuer_classes", "--runs", "1",
                       "--seed", "2", "--plans", "--format", "json")
    assert code == 0
    data = json.loads(out)
    plans = {p["class"]: p for p in data["plans"]}
    assert plans["III"]["rotations"] == []  # base already realizes it
    some = next(p for c, p in plans.items() if c != "III" and p["converged"])
    assert {"i", "j", "theta"} <= set(some["rotations"][0])


def test_rotate_tsv_plans_render_the_json_report(tmp_path, capsys):
    argv = ["rotate", "nuer_classes", "--runs", "2", "--seed", "4", "--plans"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    tsv_code, tsv, _ = run(capsys, *argv, "--format", "tsv")
    assert code == tsv_code == 0
    assert "# plans" in tsv and tsv == rpt.to_tsv(rpt.loads(out))
    for fmt, text in (("json", out), ("tsv", tsv)):
        path = tmp_path / f"report.{fmt}"
        assert main([*argv, "--format", fmt, "--out", str(path)]) == 0
        assert path.read_bytes() == text.encode("utf-8")


def test_rotate_single_exponent_class_file(tmp_path, capsys):
    par = tmp_path / "one.par"
    par.write_text(
        "FEATURE number: sg pl\nMORPHEMES: a\n"
        "CLASS A LEXEMES 3\nCELL sg -> a\nCELL pl -> a\nEND\n"
    )
    code, out, _ = run(capsys, "rotate", str(par), "--plans", "--format", "json")
    assert code == 0
    (row,) = json.loads(out)["classes"]
    assert row["converged_runs"] == 1 and row["mean_iterations"] == 0.0
    assert row["smallest_margin"] == math.inf



def test_rotate_rejects_negative_max_iters(capsys):
    code, out, err = run(capsys, "rotate", "nuer_classes", "--max-iters", "-3")
    assert code == 1 and out == ""
    assert "max_iters" in err


def test_rotate_rejects_runs_below_one(capsys):
    assert run(capsys, "rotate", "nuer_classes", "--runs", "0") == (
        1, "", "error: runs must be at least 1\n")


# init rejects the value on a cell table too, which does not read it
@pytest.mark.parametrize(
    "command,paradigm",
    [("init", "nuer_classes"), ("rotate", "nuer_classes"), ("init", "english_weak_verb")],
    ids=["init", "rotate", "init-cell-table"],
)
@pytest.mark.parametrize("value", ["0", "-5"])
def test_class_commands_reject_min_lexemes_below_one(capsys, command, paradigm, value):
    code, out, err = run(capsys, command, paradigm, "--min-lexemes", value)
    assert code == 1 and out == ""
    assert err == f"error: min_lexemes must be at least 1, got {value}\n"


# authored angles (spanish_verbs) learn nothing, but the report echoes the options
AUTHORED_AND_LEARNED = ("german_plurals", "spanish_verbs")


def test_compose_rejects_negative_max_iters(capsys):
    for paradigm in AUTHORED_AND_LEARNED:
        code, out, err = run(capsys, "compose", paradigm, "--max-iters", "-3")
        assert code == 1 and out == ""
        assert "max_iters" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_rejects_non_finite_eta(capsys, value):
    code, out, err = run(capsys, "train", "latin_adjectives", "--eta", value)
    assert code == 1 and out == ""
    assert "eta" in err


@pytest.mark.parametrize("value", ["1e200", "1e308"])
def test_train_reports_an_overflowing_eta(capsys, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "train", "latin_adjectives", "--eta", value)
    assert code == 1 and out == ""
    assert err == (
        f"error: eta {float(value)!r} overflows the delta-rule update; use a smaller eta\n"
    )


@pytest.mark.parametrize("argv", [["--stepsize", "1e308", "--max-iters", "3"],
                                  ["--stepsize", "1e307"]])
def test_compose_reports_an_overflowing_stepsize(capsys, argv):
    code, out, err = run(capsys, "compose", "german_plurals", *argv)
    assert code == 1 and out == ""
    assert err == (f"error: stepsize {float(argv[1])!r} overflows the angle update; "
                   "use a smaller stepsize\n")


@pytest.mark.parametrize("option,name", [("--increment", "base_increment"),
                                         ("--margin-floor", "margin_floor")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_rotate_rejects_non_finite_parameters(capsys, option, name, value):
    code, out, err = run(capsys, "rotate", "nuer_classes", f"{option}={value}")
    assert code == 1 and out == ""
    assert name in err


@pytest.mark.parametrize("option,name", [("--stepsize", "stepsize"), ("--margin", "margin")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_compose_rejects_non_finite_parameters(capsys, option, name, value):
    for paradigm in AUTHORED_AND_LEARNED:
        code, out, err = run(capsys, "compose", paradigm, option, value)
        assert code == 1 and out == ""
        assert name in err


FOUR_FEATURE_CLASSES = "classes_3x2x2x2.par"  # written into the test's directory
FLAT_FIXTURES = ["english_weak_verb", "german_present", "german_full",
                 "latin_adjectives", "russian_class_one", "latin_deponent"]
JSON_COMMANDS = (
    [(command, name) for name in FLAT_FIXTURES for command in ("select", "train", "init")]
    + [("init", "nuer_classes"), ("rotate", "nuer_classes", "--plans", "--runs", "3"),
       ("compose", "german_plurals"), ("compose", "spanish_verbs")]
    # the benchmark's rotate op at three of its op seeds
    + [("rotate", "nuer_classes", "--runs", "1", "--max-iters", "50", "--seed", str(seed),
        "--plans") for seed in (100000, 100001, 100002)]
    # four features, one iteration: some plan is unconverged and written as "rotations": []
    + [("rotate", FOUR_FEATURE_CLASSES, "--max-iters", "1", "--plans")]
)


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
def test_json_reports_are_one_line_json_dumps(capsys, argv, tmp_path, monkeypatch):
    # every report and trace record is built-in all the way down, a pre-rendered
    # section once loaded: json.dumps would also take numpy's float64, a float
    # subclass, without complaint
    reports, records = [], []
    emit, dumps_line = cli.emit, rpt.dumps_line
    monkeypatch.setattr(cli, "emit",
                        lambda args, report: emit(args, reports.append(report) or report))
    monkeypatch.setattr(rpt, "dumps_line",
                        lambda record: dumps_line(records.append(record) or record))
    trace = tmp_path / "trace.jsonl"
    traced = ["--trace", str(trace)] if argv[0] in ("train", "rotate") else []
    if argv[1] == FOUR_FEATURE_CLASSES:
        (tmp_path / FOUR_FEATURE_CLASSES).write_text(MULTI_FEATURE["3x2x2x2"], encoding="utf-8")
        argv = (argv[0], str(tmp_path / FOUR_FEATURE_CLASSES), *argv[2:])
    _, out, _ = run(capsys, *argv, *traced, "--format", "json")
    if FOUR_FEATURE_CLASSES in argv[1]:
        assert '"converged": false, "rotations": []' in out
    # float repr round-trips exactly, so re-dumping the parsed report
    # reproduces what was written for the original values
    assert out.endswith("\n") and "\n" not in out[:-1]
    assert rpt.dumps(json.loads(out)) == out
    assert len(reports) == 1 and built_in(loaded(reports[0]))
    assert out == json.dumps(loaded(reports[0]), sort_keys=True, ensure_ascii=False) + "\n"
    assert len(records) == (len(trace.read_text().splitlines()) if traced else 0)
    assert all(map(built_in, records))


def test_rotate_trace_has_a_line_per_class_and_run(tmp_path, capsys):
    argv = ["rotate", "nuer_classes", "--runs", "2", "--max-iters", "1", "--seed", "3",
            "--format", "json"]
    trace = tmp_path / "rotate.jsonl"
    code, plain_out, _ = run(capsys, *argv)
    traced_code, traced_out, _ = run(capsys, *argv, "--trace", str(trace))
    assert code == traced_code == 2
    assert traced_out == plain_out
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(records) == 32
    assert set(records[0]) == {
        "class", "run", "converged", "iterations", "min_margin", "rotations"
    }
    assert [(r["class"], r["run"]) for r in records[:4]] == [("I", 0), ("I", 1), ("II", 0), ("II", 1)]
    failed = [r for r in records if not r["converged"]]
    assert failed and all(r["iterations"] == 1 and r["rotations"] == 6 for r in failed)
    assert all(isinstance(r["min_margin"], float) for r in failed)
    assert any(r["min_margin"] <= 0 for r in failed)
    # the report keeps its means over converged runs only
    classes = {c["class"]: c for c in json.loads(plain_out)["classes"]}
    for label, c in classes.items():
        mine = [r for r in records if r["class"] == label]
        assert c["converged_runs"] == sum(r["converged"] for r in mine)


def test_negative_seeds_do_not_replay_positive_ones(tmp_path, capsys):
    """`random.Random` seeds from |seed|, and `rotate` keys its runs by seed mod 2**64.

    In both learners -n must not replay n.
    """
    for seed in (0, 1, 3, 3 * 1_000_003, 2**70):
        assert seeded_random(seed).getstate() == random.Random(seed).getstate()
    assert seeded_random(-3).getstate() != seeded_random(3).getstate()
    angles = {}
    for seed in ("3", "-3"):
        code, out, _ = run(capsys, "compose", "german_plurals", "--seed", seed, "--format", "json")
        assert code == 0
        angles[seed] = json.loads(out)["angles"]
    assert angles["3"] != angles["-3"]
    runs = {}
    for seed in ("1", "-1"):
        trace = tmp_path / f"{seed}.jsonl"
        run(capsys, "rotate", "nuer_classes", "--max-iters", "2", "--seed", seed,
            "--trace", str(trace))
        first = json.loads(trace.read_text().splitlines()[0])
        runs[seed] = (first["class"], first["run"], first["min_margin"], first["rotations"])
    assert runs["1"][:2] == runs["-1"][:2] == ("I", 0)
    assert runs["1"] != runs["-1"]


@pytest.mark.parametrize("seed", [-(2**63), 2**63 - 1])
def test_rotate_runs_at_both_ends_of_the_seed_range(seed, capsys):
    code, out, _ = run(capsys, "rotate", "nuer_classes", "--max-iters", "1", "--seed", str(seed),
                       "--plans", "--format", "json")
    assert code in (0, 2) and json.loads(out)["config"]["seed"] == seed


@pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 2**64 - 1, 2**64])
@pytest.mark.parametrize("from_env", [False, True])
def test_rotate_rejects_a_seed_outside_the_range(seed, from_env, capsys, monkeypatch):
    # seed mod 2**64 keys the stream, so 2**64 - 1 would replay -1 and 2**64 replay 0
    if from_env:
        monkeypatch.setenv("GEOMORPH_SEED", str(seed))
    argv = ["rotate", "nuer_classes", "--max-iters", "1"] + ([] if from_env else ["--seed", str(seed)])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: seed must be in [-2**63, 2**63), got {seed}\n"


# ---- the parser is built once per process: its text and its state ----

HELP = """\
usage: geomorph [-h] {init,select,train,compose,rotate,report} ...

Geometric inflectional morphology: selection, training, composition, rotation

positional arguments:
  {init,select,train,compose,rotate,report}
    init                count-based exponent initialization
    select              activations, winners, and gold comparison
    train               delta-rule training to the gold table
    compose             stem+affix selection or angle learning
    rotate              derive inflection classes by rotation
    report              re-render a saved JSON report as TSV

options:
  -h, --help            show this help message and exit
"""

SELECT_USAGE = "usage: geomorph select [-h] [--format {tsv,json}] [--out OUT] paradigm\n"

SELECT_HELP = SELECT_USAGE + """
positional arguments:
  paradigm

options:
  -h, --help           show this help message and exit
  --format {tsv,json}
  --out OUT            write the report here instead of stdout
"""

MISSING_PARADIGM = (
    SELECT_USAGE + "geomorph select: error: the following arguments are required: paradigm\n"
)

ROTATE_USAGE = """usage: geomorph rotate [-h] [--increment INCREMENT]
                       [--margin-floor MARGIN_FLOOR] [--max-iters MAX_ITERS]
                       [--runs RUNS] [--seed SEED] [--min-lexemes MIN_LEXEMES]
                       [--plans] [--trace TRACE] [--format {tsv,json}]
                       [--out OUT]
                       paradigm
"""

RUNS_NOT_INT = ROTATE_USAGE + "geomorph rotate: error: argument --runs: invalid int value: 'x'\n"

UNKNOWN_FLAG = (
    "usage: geomorph [-h] {init,select,train,compose,rotate,report} ...\n"
    "geomorph: error: unrecognized arguments: --bogus\n"
)


@pytest.mark.parametrize("argv, code, out, err", [
    (["--help"], 0, HELP, ""),
    (["select", "--help"], 0, SELECT_HELP, ""),
    # usage errors are bad input, exit 1; exit 2 means "not converged"
    (["select"], 1, "", MISSING_PARADIGM),
    (["rotate", "nuer_classes", "--runs", "x"], 1, "", RUNS_NOT_INT),
    (["select", "english_weak_verb", "--bogus"], 1, "", UNKNOWN_FLAG),
    (["--help"], 0, HELP, ""),  # a second time, from the same process
])
def test_help_and_usage_text(argv, code, out, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == code
    assert capsys.readouterr() == (out, err)


def test_seed_flag_does_not_carry_over(capsys, monkeypatch):
    monkeypatch.delenv("GEOMORPH_SEED", raising=False)
    code, _, _ = run(capsys, "rotate", "nuer_classes", "--runs", "1", "--seed", "3",
                     "--max-iters", "5", "--format", "json")
    assert code in (0, 2)
    code, out, _ = run(capsys, "compose", "german_plurals", "--format", "json")
    assert json.loads(out)["config"]["seed"] == 0
    monkeypatch.setenv("GEOMORPH_SEED", "5")
    code, out, _ = run(capsys, "compose", "german_plurals", "--format", "json")
    assert json.loads(out)["config"]["seed"] == 5


@pytest.mark.parametrize("argv", [
    ["init", "nuer_classes"],
    ["select", "english_weak_verb"],
    ["train", "english_weak_verb"],
    ["compose", "german_plurals"],
    ["rotate", "nuer_classes", "--runs", "1", "--max-iters", "5"],
], ids=lambda argv: argv[0])
def test_report_config_echoes_every_option_but_the_routing_ones(argv, capsys, monkeypatch):
    monkeypatch.setenv("GEOMORPH_SEED", "5")
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in commands.choices[argv[0]]._actions}
    echoed = dests - {"help", "format", "out", "trace", "plans"}
    _, out, _ = run(capsys, *argv, "--format", "json")
    args = parser.parse_args(argv)
    expected = {dest: getattr(args, dest) for dest in echoed}
    if "seed" in expected:
        assert args.seed is None
        expected["seed"] = 5  # the resolved seed, not the parsed None
    assert json.loads(out)["config"] == expected


def test_each_call_parses_into_a_fresh_namespace(capsys, monkeypatch):
    seen = []
    emit = cli.emit
    monkeypatch.setattr(cli, "emit", lambda args, report: (seen.append(args), emit(args, report)))
    run(capsys, "rotate", "nuer_classes", "--runs", "1", "--seed", "3", "--max-iters", "5",
        "--plans", "--format", "json")
    run(capsys, "select", "english_weak_verb")
    run(capsys, "rotate", "nuer_classes", "--runs", "1", "--max-iters", "5")
    first, second, third = seen
    assert len({id(first), id(second), id(third)}) == 3
    assert vars(second) == {"command": "select", "paradigm": "english_weak_verb",
                            "format": "tsv", "out": None, "func": cli.cmd_select}
    assert (first.seed, first.plans, first.format) == (3, True, "json")
    assert (third.seed, third.plans, third.format) == (None, False, "tsv")


@pytest.mark.parametrize("argv,inits", [
    (["select", "latin_adjectives"], 1),
    (["train", "latin_adjectives"], 1),
    (["init", "latin_adjectives"], 1),
    (["init", "nuer_classes"], 0),
])
def test_an_op_parses_once_and_builds_one_corner_matrix(argv, inits, capsys, monkeypatch):
    # the benchmark's per-layer spans hook these same names
    calls = Counter()

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(cli, "load_paradigm")
    counting(ParadigmFile, "corner_matrix")
    counting(paradigm, "build_corner_matrix")
    counting(cli, "initial_exponents")
    run(capsys, *argv)
    assert calls == Counter(load_paradigm=1, corner_matrix=1, build_corner_matrix=1,
                            initial_exponents=inits)


def _parsed_argvs():
    """Every argv of `tools/cli_sweep.py`, with its `--trace` where the sweep adds one, and
    forms it lacks: `--opt=value`, options before the positional, abbreviations, `--`."""
    sweep = _cli_sweep()
    groups = (sweep.ops(), sweep.TIE_OPS, sweep.LONG_RUN_OPS, sweep.LANE_TAIL_OPS)
    argvs = [argv + ["--trace", "t.jsonl"] if traced else argv
             for group in groups for argv, traced in group]
    return argvs + [
        ["report", "saved.json"],
        ["report", "--out=saved.tsv", "saved.json"],
        ["select", "--format=json", "english_weak_verb"],
        ["select", "english_weak_verb", "--format", "json", "--format", "tsv"],
        ["select", "--", "english_weak_verb"],
        ["train", "--eta=0.5", "--max-iters=3", "--no-error-driven", "german_full"],
        ["train", "german_full", "--no-error-driven", "--error-driven", "--max-it", "4"],
        ["init", "--min-lexemes=2", "--out", "init.tsv", "nuer_classes"],
        ["compose", "--seed=-3", "german_plurals", "--margin", "-0.5", "--stepsize=1e-3"],
        ["rotate", "--runs", "2", "--seed", "4", "--plans", "nuer_classes", "--trace=t",
         "--margin-f", "0.1", "--inc=0.2"],
    ]


def test_main_hands_on_the_namespace_the_top_parser_gives(monkeypatch):
    # main parses with the command's own parser; the namespace, with its key order (a
    # report's config follows it), must be what the top parser's two passes give; repr
    # compares the nan of `--stepsize nan` too
    seen = []
    monkeypatch.setattr(cli, "run_command", seen.append)
    # with the name rebound, main hands a report's namespace to run_command as well
    monkeypatch.setattr(cli, "cmd_report", seen.append)
    for argv in _parsed_argvs():
        seen.clear()
        main(argv)
        want = cli.build_parser().parse_args(argv)
        assert [repr(vars(args)) for args in seen] == [repr(vars(want))], argv


@pytest.mark.parametrize("argv,selections", [
    (["compose", "german_plurals", "--seed", "3"], 50),
    (["compose", "spanish_verbs"], 12),
])
def test_compose_selects_each_gold_form_once(argv, selections, capsys, monkeypatch):
    # every selection, the CLI's or verify_gold_forms', measures each affix's sum once
    calls = []
    sum_distance = AngleModel.sum_distance
    monkeypatch.setattr(AngleModel, "sum_distance",
                        lambda *args: calls.append(args) or sum_distance(*args))
    pf = cli.load_paradigm(argv[1])
    assert len(pf.gold_forms()) * len(pf.affix_labels()) == selections
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == selections


def test_module_entry_writes_what_main_writes(capsys):
    argv = ["select", "english_weak_verb", "--format", "json"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "geomorph.cli", *argv],
                          env=env, capture_output=True)
    code, out, _ = run(capsys, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode("utf-8"), b"")
    assert code == 0


def test_repeated_ops_leave_no_small_tuples_behind(tmp_path):
    """Ops build small tuples from lists, never from generators.

    CPython builds tuple(<generator>) by resizing, and a resized tuple of
    fewer than 20 items goes on the free list of its final size when freed,
    which is never drawn on to build one that way again; up to 2,000 per
    size stay allocated until a full garbage collection, about 1 MB in a
    process that serves many calls.
    """
    out = str(tmp_path / "out")
    argvs = [
        ["select", "german_full", "--out", out],
        ["train", "russian_class_one", "--out", out],
        ["init", "nuer_classes", "--out", out],
        ["compose", "german_plurals", "--seed", "1", "--out", out],
    ]
    gc.collect()  # also empties the free lists
    grown = []
    for _ in range(2):
        before = sys.getallocatedblocks()
        for _ in range(25):
            for argv in argvs:
                main(argv)
        grown.append(sys.getallocatedblocks() - before)
    # the first 100 ops refill the float, list and dict free lists, which
    # hold at most 100 or 80 each; tuple(<generator>) left ~28 blocks per op
    assert grown[1] < 500, grown
