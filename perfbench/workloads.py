"""The benchmark's workloads: op streams, the synthetic generator, output checks.

An op is one in-process ``geomorph.cli.main(argv)`` call. A workload turns
its seed into an endless, deterministic stream of ops; op ``k`` is the same
argv and the same check for the same seed. The first ``pass_len`` ops form
pass 0, over which output digests and exact counts are taken.

Every check returns ``None`` when the op's output is correct and a short
reason otherwise. Checks read only the op's exit code and stdout, plus
references the benchmark built itself before timing started.
"""
from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from geomorph import cli, fixtures
from geomorph import report as rpt
from geomorph.composition import AngleModel, verify_gold_forms
from geomorph.rotations import PlaneRotation, apply_rotation, base_configuration

# Bound now so that checks never run through a traced (rebound) name.
LOADS, DUMPS, TO_TSV = rpt.loads, rpt.dumps, rpt.to_tsv

FLAT_FIXTURES = (
    "english_weak_verb",
    "german_present",
    "german_full",
    "latin_adjectives",
    "russian_class_one",
    "latin_deponent",
)
ROTATE_RUNS = 1  # learner runs per class per rotate op
# Iteration cap per learner run. At the default 500, the 0.5 % of runs that
# never converge cost 10x a typical run and make a 20 s window's throughput
# swing by 15 % from seed to seed; within 50 iterations 96 % of runs converge.
ROTATE_MAX_ITERS = 50
SEED_STRIDE = 100_000  # op seeds of two workload seeds never overlap
UNIT_TOL = 1e-9
ACT_TOL = 1e-12

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check


# ---------------------------------------------------------------- references


_CELL = re.compile(r"^\s*CELL\s+(.*?)\s*->\s*(\S+)\s*(?:#.*)?$")


def flat_gold(text: str) -> dict[str, str]:
    """Cell label -> gold exponent, read from the CELL lines of a flat file."""
    gold = {}
    for line in text.splitlines():
        m = _CELL.match(line)
        if m:
            gold[",".join(m.group(1).split())] = m.group(2)
    return gold


def _json(out: str):
    """Parse a JSON report; returns (report, problem)."""
    try:
        report = LOADS(out)
    except ValueError as exc:
        return None, f"stdout is not a JSON report: {exc}"
    if DUMPS(report) != out:
        return None, "loads/dumps does not round-trip the report"
    return report, None


def _corners(value_names, cell_labels) -> np.ndarray:
    index = {v: k for k, v in enumerate(value_names)}
    out = np.zeros((len(cell_labels), len(value_names)))
    for r, label in enumerate(cell_labels):
        for v in label.split(","):
            out[r, index[v]] = 1.0
    return out


def _strict_winner(row) -> int | None:
    top = max(row)
    js = [j for j, a in enumerate(row) if a == top]
    return js[0] if len(js) == 1 else None


def _unit_columns(entries) -> bool:
    norms = np.linalg.norm(np.asarray(entries, dtype=float), axis=0)
    return bool((np.abs(norms - 1.0) <= UNIT_TOL).all())


# ---------------------------------------------------------------- checks


def check_select(gold: dict[str, str]) -> Check:
    def check(rc, out):
        r, bad = _json(out)
        if bad:
            return bad
        acts = r["activations"]
        morphs = acts["col_labels"]
        cells = acts["row_labels"]
        if set(cells) != set(gold) or len(cells) != len(gold):
            return "activation rows are not the paradigm's cells"
        winners = []
        for row in acts["entries"]:
            j = _strict_winner(row)
            winners.append("-" if j is None else morphs[j])
        ties = [c for c, w in zip(cells, winners) if w == "-"]
        mismatches = [c for c, w in zip(cells, winners) if w != gold[c]]
        if r["winners"] != winners or r["ties"] != ties:
            return "winners or ties disagree with the activations"
        if r["gold"] != [gold[c] for c in cells] or r["mismatches"] != mismatches:
            return "gold or mismatches disagree with the paradigm"
        if r["correct"] != len(cells) - len(mismatches) or r["cells"] != len(cells):
            return "correct/cells counts are wrong"
        expo = r["exponents"]
        if not _unit_columns(expo["entries"]):
            return "exponent columns are not unit length"
        want = _corners(expo["row_labels"], cells) @ np.asarray(expo["entries"])
        if not np.allclose(want, np.asarray(acts["entries"]), rtol=0, atol=ACT_TOL):
            return "activations are not corners times exponents"
        if rc != (3 if ties else 0):
            return f"exit {rc} with {len(ties)} tie(s) listed"
        return None

    return check


def check_train(gold: dict[str, str]) -> Check:
    def check(rc, out):
        r, bad = _json(out)
        if bad:
            return bad
        expo = r["exponents"]
        cells = r["activations"]["row_labels"]
        if set(cells) != set(gold) or len(cells) != len(gold):
            return "activation rows are not the paradigm's cells"
        if not _unit_columns(expo["entries"]):
            return "exponent columns are not unit length"
        ties = "-" in r["winners"]
        if r["converged"] != (not r["mismatches"]):
            return "converged flag disagrees with the mismatch list"
        want = 3 if ties else (0 if r["converged"] else 2)
        if rc != want:
            return f"exit {rc}, expected {want} from the report"
        if r["converged"]:
            acts = _corners(expo["row_labels"], cells) @ np.asarray(expo["entries"])
            morphs = expo["col_labels"]
            for cell, row in zip(cells, acts.tolist()):
                j = _strict_winner(row)
                if j is None or morphs[j] != gold[cell]:
                    return f"converged exponents mis-select cell {cell}"
        return None

    return check


def check_init(classes: bool) -> Check:
    def check(rc, out):
        r, bad = _json(out)
        if bad:
            return bad
        entries = np.asarray(r["exponents"]["entries"], dtype=float)
        if not _unit_columns(entries) or (entries < 0).any():
            return "initial exponents are not non-negative unit columns"
        if classes and not r.get("base_class"):
            return "class file init names no base class"
        if rc != 0:
            return f"exit {rc} from init"
        return None

    return check


def check_compose(pf) -> Check:
    stems, affixes, gold_forms = pf.stem_labels(), pf.affix_labels(), pf.gold_forms()

    def check(rc, out):
        r, bad = _json(out)
        if bad:
            return bad
        model = AngleModel(
            (r["plane"]["x"], r["plane"]["y"]),
            {a["label"]: a["radians"] for a in r["angles"]},
        )
        failures = verify_gold_forms(model, stems, affixes, gold_forms)
        if r["failures"] != len(failures):
            return "reported failure count disagrees with re-selection"
        if r["converged"] and failures:
            return f"converged model fails gold forms {failures[:2]}"
        if rc != (0 if r["converged"] and not failures else 2):
            return f"exit {rc} disagrees with converged={r['converged']}"
        return None

    return check


def plan_margin(base, corners: np.ndarray, gold: np.ndarray, rotations) -> float:
    """Worst intended-minus-best-rival margin after re-applying a plan."""
    plan = [PlaneRotation(d["i"], d["j"], d["theta"]) for d in rotations]
    acts = corners @ apply_rotation(base, plan).matrix
    intended = gold.argmax(axis=1)
    rows = np.arange(len(acts))
    rivals = np.where(gold == 1.0, -np.inf, acts).max(axis=1)
    return float((acts[rows, intended] - rivals).min())


def check_rotate(inv, base, floor: float) -> Check:
    corners = inv.corners.matrix

    def check(rc, out):
        r, bad = _json(out)
        if bad:
            return bad
        rows = r["classes"]
        if [c["class"] for c in rows] != list(inv.labels()):
            return "report does not list every class in order"
        if any(not 0 <= c["converged_runs"] <= c["runs"] for c in rows):
            return "converged_runs out of range"
        reached = all(c["converged_runs"] > 0 for c in rows)
        if rc != (0 if reached else 2):
            return f"exit {rc} disagrees with per-class convergence"
        for row, plan in zip(rows, r["plans"]):
            if plan["converged"] != (row["converged_runs"] > 0):
                return f"class {row['class']}: plan flag disagrees with its runs"
            if not plan["converged"]:
                continue
            gold = inv.classes[plan["class"]].matrix
            margin = plan_margin(base, corners, gold, plan["rotations"])
            if not margin >= floor:
                return f"class {plan['class']}: re-applied plan margin {margin:.4g} < {floor}"
        return None

    return check


def check_report(expected: str) -> Check:
    def check(rc, out):
        if rc != 0:
            return f"exit {rc} from report"
        if out != expected:
            return "TSV differs from the saved report's rendering"
        return None

    return check


# ---------------------------------------------------------------- generator


@dataclass(frozen=True)
class Synthetic:
    text: str  # .par source
    gold: dict[str, str]  # cell label -> exponent
    solution: np.ndarray  # the drawn configuration whose strict winners are gold


def generate_paradigm(rng: random.Random, values: tuple[int, ...], exponents: int,
                      cells: int | None = None) -> Synthetic:
    """A flat paradigm whose gold table is realized by some exponent configuration.

    The paradigm lists ``cells`` of the feature cross product (all of them by
    default), chosen at random and kept in product order. Draws a
    non-negative unit configuration, takes its strict winners as the gold
    table, and redraws until no cell is tied and every exponent wins at
    least one cell (count initialization would otherwise hit a zero column).
    """
    feats = [
        (f"f{i}", tuple(f"f{i}v{j}" for j in range(n))) for i, n in enumerate(values)
    ]
    names = [v for _, vs in feats for v in vs]
    labels = [",".join(c) for c in itertools.product(*(vs for _, vs in feats))]
    if cells is not None:
        keep = set(rng.sample(range(len(labels)), cells))
        labels = [c for k, c in enumerate(labels) if k in keep]
    corners = _corners(names, labels)
    morphs = [f"e{j}" for j in range(exponents)]
    for draws in range(1, 10_001):
        b = np.array([[rng.random() for _ in morphs] for _ in names])
        b /= np.linalg.norm(b, axis=0)
        acts = corners @ b
        top2 = np.sort(acts, axis=1)[:, -2:]
        if (top2[:, 1] <= top2[:, 0]).any():
            continue
        winners = acts.argmax(axis=1)
        if len(set(winners.tolist())) == exponents:
            break
    else:
        raise RuntimeError(f"no configuration for {values} x {exponents} in {draws} draws")
    lines = [f"FEATURE {f}: {' '.join(vs)}" for f, vs in feats]
    lines.append("MORPHEMES: " + " ".join(morphs))
    gold = {}
    for cell, j in zip(labels, winners.tolist()):
        gold[cell] = morphs[j]
        lines.append(f"CELL {cell.replace(',', ' ')} -> {morphs[j]}")
    return Synthetic("\n".join(lines) + "\n", gold, b)


# Values per feature: 3-5 features of 3-4 values, ordered by cell count.
SHAPES = (
    (3, 3, 3), (3, 3, 4), (3, 4, 4), (4, 4, 4), (3, 3, 3, 3),
    (3, 3, 3, 4), (3, 3, 4, 4), (3, 4, 4, 4), (3, 3, 3, 3, 3), (4, 4, 4, 4),
)
POOL = 40  # generated paradigms; ops cycle through them
POOL_STRIDE = 17  # coprime to POOL: consecutive ops jump across the size ladder
MIN_CELLS, MAX_CELLS = 27, 256


def pool_plan():
    """(values per feature, exponents, cells) per pooled paradigm, in op order.

    The same for every seed. Cell counts step evenly from 27 to 256, each on
    the smallest shape that holds them, so op costs spread without gaps and
    the median and tail land inside the spread rather than between two
    sizes; exponent counts cycle through 6-10.
    """
    plan = []
    for j in range(POOL):
        rung = j * POOL_STRIDE % POOL
        cells = round(MIN_CELLS + (MAX_CELLS - MIN_CELLS) * rung / (POOL - 1))
        values = next(v for v in SHAPES if int(np.prod(v)) >= cells)
        plan.append((values, 6 + j % 5, cells))
    return plan


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    why = ""
    pass_len = 1  # ops in pass 0
    # op_ms_tail percentile, fixed per workload so that runs and versions
    # compare the same rank; each leaves ten or more of a run's ops beyond it
    tail_percentile = 90.0

    def op(self, k: int) -> Op:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        raise NotImplementedError


class NuerRotate(Workload):
    name = "nuer_rotate"
    why = ("rotate nuer_classes with plans: the rotation learner is the one real hot path; "
           "parse, base configuration and report are a few percent")
    pass_len = 2
    tail_percentile = 85.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        pf = fixtures.load("nuer_classes")
        inv = pf.class_inventory()
        floor = cli.build_parser().parse_args(["rotate", "x"]).margin_floor
        self._check = check_rotate(inv, base_configuration(inv), floor)

    def _rotate(self, s: int) -> Op:
        argv = ("rotate", "nuer_classes", "--runs", str(ROTATE_RUNS),
                "--max-iters", str(ROTATE_MAX_ITERS), "--seed", str(s), "--plans",
                "--format", "json")
        return Op(argv, self._check)

    def op(self, k):
        return self._rotate(self.seed * SEED_STRIDE + k)

    def warmup(self):
        return [self._rotate(-1)]


class FixtureCli(Workload):
    name = "fixture_cli"
    why = ("select, train, init, compose and report on the bundled fixtures as a linguist runs "
           "them: 3-14 ms ops set by per-call parse, report and argparse cost")
    tail_percentile = 99.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        ops = []
        for name in FLAT_FIXTURES:
            gold = flat_gold(fixtures.fixture_text(name))
            ops.append(Op(("select", name, "--format", "json"), check_select(gold)))
            ops.append(Op(("train", name, "--format", "json"), check_train(gold)))
            ops.append(Op(("init", name, "--format", "json"), check_init(False)))
        ops.append(Op(("init", "nuer_classes", "--format", "json"), check_init(True)))
        ops.append(Op(("compose", "spanish_verbs", "--format", "json"),
                      check_compose(fixtures.load("spanish_verbs"))))
        saved = workdir / "saved.json"
        rc = cli.main(["train", "latin_adjectives", "--format", "json", "--out", str(saved)])
        if rc != 0:
            raise RuntimeError(f"saving the report for the report op exited {rc}")
        expected = TO_TSV(LOADS(saved.read_text(encoding="utf-8")))
        ops.append(Op(("report", saved.name), check_report(expected)))
        self._fixed = ops
        self._compose = check_compose(fixtures.load("german_plurals"))
        self.pass_len = len(ops) + 1

    def _plurals(self, s: int) -> Op:
        return Op(("compose", "german_plurals", "--seed", str(s), "--format", "json"),
                  self._compose)

    def op(self, k):
        p, i = divmod(k, self.pass_len)
        if i == len(self._fixed):
            return self._plurals(self.seed * SEED_STRIDE + p)
        return self._fixed[i]

    def warmup(self):
        return self._fixed + [self._plurals(-1)]


class SyntheticTrain(Workload):
    name = "synthetic_train"
    why = ("select and train on seeded 27-256 cell paradigms: the exponence and training layers "
           "at 10-30x fixture size, up to 100 delta passes per op")
    # Every paradigm is trained and every third one is selected first. With
    # one select per train the median fell in the gap between selects
    # (<= 35 ms) and unconverged trains (>= 250 ms).
    SELECT_EVERY = 3
    pass_len = 8  # 6 paradigms
    tail_percentile = 80.0

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self._pool = []
        for j, (values, m, cells) in enumerate(pool_plan()):
            syn = generate_paradigm(rng, values, m, cells)
            path = workdir / f"p{j:02d}.par"
            path.write_text(syn.text, encoding="utf-8")
            self._pool.append((path.name, check_select(syn.gold), check_train(syn.gold)))
        syn = generate_paradigm(random.Random(-1), SHAPES[0], 6)
        (workdir / "warmup.par").write_text(syn.text, encoding="utf-8")
        self._warm = ("warmup.par", check_select(syn.gold), check_train(syn.gold))
        self._stream = [op for j, entry in enumerate(self._pool) for op in self._ops(j, entry)]

    def _ops(self, j: int, entry) -> list[Op]:
        path, sel, tr = entry
        ops = [Op(("select", path, "--format", "json"), sel)] if j % self.SELECT_EVERY == 0 else []
        return ops + [Op(("train", path, "--format", "json"), tr)]

    def op(self, k):
        return self._stream[k % len(self._stream)]

    def warmup(self):
        return self._ops(0, self._warm)


WORKLOADS = {w.name: w for w in (NuerRotate, FixtureCli, SyntheticTrain)}

