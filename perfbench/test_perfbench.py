"""Tests of the benchmark itself: generator, checks, and the result contract.

Run from the repository root with ``python -m pytest perfbench``.
"""
import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from geomorph import cli, parse_text  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize("values,m", [((3, 3, 3), 10), ((3, 3, 4, 4), 6), ((4, 4, 4, 4), 8)])
def test_generator_is_deterministic(values, m):
    a = wl.generate_paradigm(random.Random(7), values, m)
    b = wl.generate_paradigm(random.Random(7), values, m)
    c = wl.generate_paradigm(random.Random(8), values, m)
    assert a.text == b.text and a.gold == b.gold
    assert a.text != c.text


@pytest.mark.parametrize("seed", range(4))
def test_generated_gold_is_a_strict_tie_free_realization(seed):
    for values, m, n in wl.pool_plan()[:10]:
        syn = wl.generate_paradigm(random.Random(seed), values, m, n)
        pf = parse_text(syn.text)
        gold = pf.gold_table()
        cells = [c.label() for c in gold.row_labels]
        assert len(cells) == n and set(cells) == set(syn.gold)
        assert (gold.matrix.sum(axis=0) >= 1).all(), "every exponent wins a cell"
        acts = wl._corners(pf.feature_system().value_names, cells) @ syn.solution
        top2 = np.sort(acts, axis=1)[:, -2:]
        assert (top2[:, 1] > top2[:, 0]).all(), "gold built from strict winners"
        winners = [pf.morphemes[j] for j in acts.argmax(axis=1)]
        assert winners == [syn.gold[c] for c in cells]
        assert wl.flat_gold(syn.text) == syn.gold


def test_pool_covers_the_size_range():
    plan = wl.pool_plan()
    cells = sorted(n for _, _, n in plan)
    assert cells[0] == 27 and cells[-1] == 256
    assert sorted({m for _, m, _ in plan}) == [6, 7, 8, 9, 10]
    assert all(3 <= len(v) <= 5 and n <= np.prod(v) for v, _, n in plan)


# ---------------------------------------------------------------- op streams


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_op_streams_are_deterministic(name, tmp_path):
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    a, b, c = (wl.WORKLOADS[name](seed, d) for seed, d in zip((3, 3, 4), dirs))
    ks = range(2 * a.pass_len)
    assert [a.op(k).argv for k in ks] == [b.op(k).argv for k in ks]
    inputs = [{p.name: p.read_text() for p in d.iterdir()} for d in dirs]
    assert inputs[0] == inputs[1]
    assert ([a.op(k).argv for k in ks], inputs[0]) != ([c.op(k).argv for k in ks], inputs[2])


# ---------------------------------------------------------------- checks


@pytest.fixture(scope="module")
def fixture_ops(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fx")
    w = wl.FixtureCli(5, workdir)
    return w, {w.op(k).argv[:2]: w.op(k) for k in range(w.pass_len)}, workdir


def test_every_fixture_op_passes_its_check(fixture_ops, monkeypatch):
    _, ops, workdir = fixture_ops
    monkeypatch.chdir(workdir)  # the report op names its saved file relative to here
    for op in ops.values():
        rc, out = run_cli(op.argv)
        assert op.check(rc, out) is None, op.argv


def test_synthetic_ops_pass_their_checks(tmp_path, monkeypatch):
    w = wl.SyntheticTrain(1, tmp_path)
    monkeypatch.chdir(tmp_path)
    for op in w.warmup() + [w.op(0), w.op(1)]:
        rc, out = run_cli(op.argv)
        assert op.check(rc, out) is None, op.argv


def test_select_check_rejects_corrupted_reports(fixture_ops):
    _, ops, _ = fixture_ops
    op = ops[("select", "latin_adjectives")]
    rc, out = run_cli(op.argv)
    assert rc == 3 and op.check(rc, out) is None  # the documented Latin tie
    assert op.check(0, out) is not None  # exit code hides the listed tie
    r = json.loads(out)
    r["winners"][0] = r["gold"][1] if r["winners"][0] != r["gold"][1] else "-"
    assert op.check(rc, wl.DUMPS(r)) is not None
    assert op.check(rc, out.replace("\n", "\n ", 1)) is not None  # no round trip


def test_train_check_rejects_corrupted_reports(fixture_ops):
    _, ops, _ = fixture_ops
    op = ops[("train", "german_full")]
    rc, out = run_cli(op.argv)
    assert rc == 0 and op.check(rc, out) is None
    assert op.check(2, out) is not None
    r = json.loads(out)
    entries = r["exponents"]["entries"]
    entries[0], entries[-1] = entries[-1], entries[0]  # still unit columns
    assert op.check(rc, wl.DUMPS(r)) is not None


def test_compose_and_report_checks_reject_corruption(fixture_ops):
    w, _, _ = fixture_ops
    op = w.op(w.pass_len - 1)
    assert op.argv[:2] == ("compose", "german_plurals")
    rc, out = run_cli(op.argv)
    assert op.check(rc, out) is None
    r = json.loads(out)
    for a in r["angles"]:
        a["radians"] = 0.0
    assert op.check(rc, wl.DUMPS(r)) is not None
    report = w._fixed[-1]
    assert report.check(0, "x\n") is not None


def test_rotation_check_rejects_a_corrupted_plan(tmp_path):
    w = wl.NuerRotate(2, tmp_path)
    op = w.op(0)
    rc, out = run_cli(op.argv)
    assert op.check(rc, out) is None
    r = json.loads(out)
    plans = [p for p in r["plans"] if p["converged"] and p["rotations"]]
    assert plans
    for plan in plans:
        for rot in plan["rotations"]:
            rot["theta"] = -rot["theta"]
    assert op.check(rc, wl.DUMPS(r)) is not None
    plans[0]["rotations"] = []
    assert op.check(rc, wl.DUMPS(r)) is not None


# ---------------------------------------------------------------- contract


def _result(args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done, done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done, lines = _result(["--workload", "fixture_cli", "--seed", "1", "--seconds", "0.3",
                           "--trace", str(trace)])
    assert done.returncode == 0, done.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.NAMES)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in wl.WORKLOADS.values()]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done, lines = _result(["--workload", "nuer_rotate", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in lines)
