import json
import math

import pytest

from geomorph import report as rpt
from geomorph.cli import main

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


def test_compose_learns_when_unpositioned(capsys):
    code, out, _ = run(
        capsys, "compose", "german_plurals", "--seed", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["converged"] is True and data["failures"] == 0


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
    bad.write_text('{"schema": 99}')
    code, _, err = run(capsys, "report", str(bad))
    assert code == 1 and "schema" in err


def test_bad_env_seed_is_clean_exit_one(capsys, monkeypatch):
    monkeypatch.setenv("GEOMORPH_SEED", "not-a-number")
    code, _, err = run(capsys, "compose", "german_plurals")
    assert code == 1 and "GEOMORPH_SEED" in err


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


def test_compose_rejects_negative_max_iters(capsys):
    code, out, err = run(capsys, "compose", "german_plurals", "--max-iters", "-3")
    assert code == 1 and out == ""
    assert "max_iters" in err


FLAT_FIXTURES = ["english_weak_verb", "german_present", "german_full",
                 "latin_adjectives", "russian_class_one", "latin_deponent"]
JSON_COMMANDS = (
    [(command, name) for name in FLAT_FIXTURES for command in ("select", "train", "init")]
    + [("init", "nuer_classes"), ("rotate", "nuer_classes", "--plans", "--runs", "3"),
       ("compose", "german_plurals"), ("compose", "spanish_verbs")]
)


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
def test_json_reports_are_indented_json_dumps(capsys, argv):
    _, out, _ = run(capsys, *argv, "--format", "json")
    # float repr round-trips exactly, so re-dumping the parsed report
    # reproduces what json.dumps wrote for the original values
    expected = json.dumps(json.loads(out), sort_keys=True, indent=2, ensure_ascii=False)
    assert out == expected + "\n"


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
        "class", "run", "seed", "converged", "iterations", "min_margin", "rotations"
    }
    assert [(r["class"], r["run"]) for r in records[:4]] == [("I", 0), ("I", 1), ("II", 0), ("II", 1)]
    assert records[1]["seed"] == 3 * 1_000_003 + 1
    failed = [r for r in records if not r["converged"]]
    assert failed and all(r["iterations"] == 1 and r["rotations"] == 6 for r in failed)
    assert all(isinstance(r["min_margin"], float) for r in failed)
    assert any(r["min_margin"] <= 0 for r in failed)
    # the report keeps its means over converged runs only
    classes = {c["class"]: c for c in json.loads(plain_out)["classes"]}
    for label, c in classes.items():
        mine = [r for r in records if r["class"] == label]
        assert c["converged_runs"] == sum(r["converged"] for r in mine)
