"""Time one learner of two geomorph checkouts against each other, in one process.

    python tools/learner_ab.py {rotate,train,compose,fixture} SRC_A SRC_B [--rounds N] [--ops N]
                               [--seed N]

SRC_A and SRC_B are directories that hold a `geomorph` package (a checkout's
`src`). Both packages are copied into a temporary directory as `geomorph_a` and
`geomorph_b` and imported side by side, so one process times both and machine
load falls on both alike. The learner decides the calls:

- rotate: `learn_all_classes` on the bundled Nuer classes at the shape of
  perfbench's `nuer_rotate` op (`--runs 1 --max-iters 50`) at its op seeds
  SEED * 100000 + k for k < OPS, then one call at `--runs 100` (seed 0), made
  BEST_OF["runs_100"] times a round with its least time counting, then the CLI's
  default shape (`--runs 1 --max-iters 500`) at the op seeds, where a slow
  class keeps one or two lanes searching longest. The sides must learn the
  same records and plans (their `axis_i`, `axis_j` and `theta` columns). Last,
  the whole `nuer_rotate` op, `geomorph.cli.main` on its argv at the op seeds,
  which also times parse, report and argparse; the sides must exit with the
  same code and write the same stdout, byte for byte.
- train: `train` from count initialization as the `train` command starts (not
  timed), on the 40 pool paradigms of perfbench's `synthetic_train` workload at
  seed SEED, generated by this checkout's `perfbench/workloads.py`, in three
  shapes: `pool` with the default settings, as the workload runs it, then two
  that no workload runs, `every_cell` (`error_driven=False, max_iters=5`, as
  `train --no-error-driven --max-iters 5`) and `eta_2.5` (`eta=2.5`). The
  sides must learn the same matrices and trace records.
- compose: `learn_angles` on the bundled German plurals as `compose
  german_plurals --seed s` runs it, at the op seeds SEED * 100000 + k for k <
  OPS. The sides must learn the same angles (bit for bit), iterations,
  convergence and adjustment counts.
- fixture: the flat-fixture ops of perfbench's `fixture_cli` workload, whole:
  `geomorph.cli.main` on `select`, `train` and `init` (`--format json`) of each
  of its six flat fixtures, one shape per command, then `compose german_plurals
  --format json` at the op seeds. They also time parse, report and argparse, so
  a slowdown of `fixture_cli` shows here in seconds. The sides must exit with
  the same code and write the same stdout, byte for byte.

Both sides make each call back to back, the side that goes first alternating
from call to call and from round to round; the run stops at the first call
whose results differ. So it cannot time a change that moves results on
purpose (a declared re-baseline, such as a new pick stream); such a change
is timed with 10 or more alternating pairs of perfbench runs instead. Results are compared by `repr`, bit for bit: `==` would
take 0.0 for -0.0. Each line printed is one round and shape: the summed
call times of A and of B in ms and the ratio B / A, below 1 when B is faster.
The last lines give each shape's median ratio. BLAS threads are pinned to 1,
as in perfbench.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SEED_STRIDE = 100_000  # as perfbench's op seeds
# Shapes whose every call is made this many times a round, its least time counting:
# one --runs 100 call takes about a second, and its one-call ratio swung from 0.83
# to 1.14 between the rounds of a single comparison; a round of a flat fixture
# shape sums six calls of about a millisecond, and its ratio swung by 7 %
BEST_OF = {"runs_100": 5, "select": 10, "train": 10, "init": 10}


def load_package(src: str, name: str, into: Path):
    """Import the `geomorph` package under `src` as `name`, copied into `into` (on sys.path)."""
    shutil.copytree(Path(src) / "geomorph", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def op_seeds(args) -> list[int]:
    return [args.seed * SEED_STRIDE + k for k in range(args.ops)]


def cli_call(cli, argv: list[str]) -> tuple[int, str]:
    """The exit code of `cli.main(argv)` and what it wrote to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def rotate_calls(pkg, args) -> dict:
    rotations = importlib.import_module(f"{pkg.__name__}.rotations")
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    inv = pkg.fixtures.load("nuer_classes").class_inventory()

    def call(seed, **shape):
        cfg = rotations.RotationLearnConfig(seed=seed, **shape)
        stats, _ = rotations.learn_all_classes(inv, cfg)
        return [(s.class_label, s.run_records,
                 s.first_plan and (s.first_plan.axis_i, s.first_plan.axis_j, s.first_plan.theta))
                for s in stats]

    def op(seed):
        return cli_call(cli, ["rotate", "nuer_classes", "--runs", "1", "--max-iters", "50",
                              "--seed", str(seed), "--plans", "--format", "json"])

    return {"nuer_rotate": [functools.partial(call, s, runs=1, max_iters=50)
                            for s in op_seeds(args)],
            "runs_100": [functools.partial(call, 0, runs=100)],
            "cli_default": [functools.partial(call, s, runs=1, max_iters=500)
                            for s in op_seeds(args)],
            "nuer_rotate_op": [functools.partial(op, s) for s in op_seeds(args)]}


@functools.cache
def workloads():
    """This checkout's `perfbench/workloads.py`."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    return importlib.import_module("perfbench.workloads")


@functools.cache
def pool_texts(seed: int) -> tuple[str, ...]:
    """The `.par` texts of `synthetic_train`'s pool paradigms at workload seed `seed`."""
    rng = random.Random(seed)
    return tuple(workloads().generate_paradigm(rng, values, m, cells).text
                 for values, m, cells in workloads().pool_plan())


def train_calls(pkg, args) -> dict:
    training = importlib.import_module(f"{pkg.__name__}.training")

    def call(cfg, expo, corners, gold):
        trained, trace = training.train(expo, corners, gold, cfg)
        return trained.matrix.tobytes(), trace.records, trace.converged, trace.iterations

    cases = []
    for text in pool_texts(args.seed):
        pf = pkg.parse_text(text)
        corners, gold = pf.corner_matrix(), pf.gold_table()
        cases.append((pkg.initial_exponents(corners, gold), corners, gold))
    shapes = {"pool": {}, "every_cell": {"error_driven": False, "max_iters": 5},
              "eta_2.5": {"eta": 2.5}}
    return {name: [functools.partial(call, training.TrainConfig(**shape), *case) for case in cases]
            for name, shape in shapes.items()}


def compose_calls(pkg, args) -> dict:
    composition = importlib.import_module(f"{pkg.__name__}.composition")
    pf = pkg.fixtures.load("german_plurals")
    inputs = (pf.stem_labels(), pf.affix_labels(), pf.gold_forms(), pf.plane)

    def call(seed):
        result = composition.learn_angles(*inputs, composition.AngleLearnConfig(seed=seed),
                                          initial=pf.authored_angles())
        return ([(k, v.hex()) for k, v in result.model.entries.items()], result.iterations,
                result.converged, result.adjustments)

    return {"german_plurals": [functools.partial(call, s) for s in op_seeds(args)]}


def fixture_calls(pkg, args) -> dict:
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    shapes = {command: [functools.partial(cli_call, cli, [command, name, "--format", "json"])
                        for name in workloads().FLAT_FIXTURES]
              for command in ("select", "train", "init")}
    shapes["compose"] = [functools.partial(cli_call, cli, ["compose", "german_plurals", "--seed",
                                                           str(s), "--format", "json"])
                         for s in op_seeds(args)]
    return shapes


LEARNERS = {"rotate": rotate_calls, "train": train_calls, "compose": compose_calls,
            "fixture": fixture_calls}


def run_rounds(sides: list[dict], rounds: int) -> None:
    ratios = {name: [] for name in sides[0]}
    print("round\tshape\tA_ms\tB_ms\tB/A")
    for rnd in range(rounds):
        for name in ratios:
            totals = [0.0, 0.0]
            for k, calls in enumerate(zip(sides[0][name], sides[1][name])):
                best = [math.inf, math.inf]
                for rep in range(BEST_OF.get(name, 1)):
                    learned = {}
                    for side in ((0, 1) if (rnd + k + rep) % 2 == 0 else (1, 0)):
                        start = time.perf_counter()
                        learned[side] = calls[side]()
                        best[side] = min(best[side], time.perf_counter() - start)
                    if repr(learned[0]) != repr(learned[1]):
                        raise SystemExit(f"round {rnd}, {name}, call {k}: the two sides "
                                         "learned different results")
                totals = [t + b for t, b in zip(totals, best)]
            a, b = (t * 1e3 for t in totals)
            ratios[name].append(b / a)
            print(f"{rnd}\t{name}\t{a:.3f}\t{b:.3f}\t{b / a:.3f}", flush=True)
    for name, values in ratios.items():
        print(f"median B/A {name} {statistics.median(values):.3f} over {rounds} rounds")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("learner", choices=LEARNERS)
    p.add_argument("src_a")
    p.add_argument("src_b")
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--ops", type=int, default=100, help="op seeds per round (rotate, compose, fixture)")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [LEARNERS[args.learner](load_package(src, name, Path(tmp)), args)
                 for src, name in ((args.src_a, "geomorph_a"), (args.src_b, "geomorph_b"))]
        run_rounds(sides, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
