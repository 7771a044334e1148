"""Time the rotation learner of two geomorph checkouts against each other, in one process.

    python tools/rotate_ab.py SRC_A SRC_B [--rounds 10] [--ops 100] [--seed 1]

SRC_A and SRC_B are directories that hold a `geomorph` package (a checkout's
`src`). Both packages are copied into a temporary directory as `geomorph_a` and
`geomorph_b` and imported side by side, so one process times both and machine
load falls on both alike. A round times, for each side, `--ops` calls of
`learn_all_classes` on the bundled Nuer classes at the shape of perfbench's
`nuer_rotate` op (`--runs 1 --max-iters 50`, seeds SEED * 100000 + k), then one
call at `--runs 100` (`--max-iters 500`, seed 0). The side that goes first
alternates from round to round. Each line printed is one round and shape: the
median call time of A and of B in ms and the ratio B / A, below 1 when B is
faster. The sides must learn the same records and plans, or the run stops.
BLAS threads are pinned to 1, as in perfbench.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SEED_STRIDE = 100_000  # as perfbench's op seeds
SHAPES = (("nuer_rotate", dict(runs=1, max_iters=50)), ("runs_100", dict(runs=100)))


def load_package(src: str, name: str, into: Path):
    """Import the `geomorph` package under `src` as `name`, copied into `into` (on sys.path)."""
    shutil.copytree(Path(src) / "geomorph", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def load_side(src: str, name: str, into: Path):
    """Import the `geomorph` package under `src` as `name`; its inventory and learner."""
    pkg = load_package(src, name, into)
    rotations = importlib.import_module(f"{name}.rotations")
    inv = pkg.fixtures.load("nuer_classes").class_inventory()
    return inv, rotations


def outcome(stats) -> list:
    """What a `learn_all_classes` call learned, comparable across the two packages."""
    return [(s.class_label, s.run_records, s.first_plan and s.first_plan.as_dicts())
            for s in stats[0]]


def time_calls(side, shape: dict, seeds: list[int]) -> tuple[list[float], list]:
    inv, rotations = side
    times, learned = [], []
    for seed in seeds:
        cfg = rotations.RotationLearnConfig(seed=seed, **shape)
        start = time.perf_counter()
        stats = rotations.learn_all_classes(inv, cfg)
        times.append(time.perf_counter() - start)
        learned.append(outcome(stats))
    return times, learned


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("src_a")
    p.add_argument("src_b")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--ops", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [load_side(args.src_a, "geomorph_a", Path(tmp)),
                 load_side(args.src_b, "geomorph_b", Path(tmp))]
        run_rounds(sides, args)
    return 0


def run_rounds(sides: list, args) -> None:
    seeds = {"nuer_rotate": [args.seed * SEED_STRIDE + k for k in range(args.ops)],
             "runs_100": [0]}
    print("round\tshape\tA_ms\tB_ms\tB/A")
    for rnd in range(args.rounds):
        for name, shape in SHAPES:
            order = (0, 1) if rnd % 2 == 0 else (1, 0)
            timed = {k: time_calls(sides[k], shape, seeds[name]) for k in order}
            if timed[0][1] != timed[1][1]:
                raise SystemExit(f"round {rnd}, {name}: the two sides learned different results")
            a, b = (statistics.median(timed[k][0]) * 1e3 for k in (0, 1))
            print(f"{rnd}\t{name}\t{a:.3f}\t{b:.3f}\t{b / a:.3f}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
