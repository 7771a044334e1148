"""Time the delta-rule training of two geomorph checkouts against each other, in one process.

    python tools/train_ab.py SRC_A SRC_B [--rounds 6] [--seed 1]

SRC_A and SRC_B are directories that hold a `geomorph` package (a checkout's
`src`), loaded side by side as `tools/rotate_ab.py` loads them. The inputs are
the 40 pool paradigms of perfbench's `synthetic_train` workload at seed SEED,
generated by this checkout's `perfbench/workloads.py`. A round times `train`
with the default settings on every pool paradigm, starting from count
initialization as the `train` command does (parsing and initialization are not
timed). Both sides train each paradigm back to back, so machine load falls on
both alike; the side that goes first alternates from paradigm to paradigm and
from round to round. Each line printed is one round: the summed train times of
A and of B in ms and the ratio B / A, below 1 when B is faster; the last line
gives the median ratio. The sides must learn the same matrices and trace
records, or the run stops. BLAS threads are pinned to 1, as in perfbench.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from rotate_ab import load_package  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def pool_texts(seed: int) -> list[str]:
    """The `.par` texts of `synthetic_train`'s pool paradigms at workload seed `seed`."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import generate_paradigm, pool_plan

    rng = random.Random(seed)
    return [generate_paradigm(rng, values, m, cells).text for values, m, cells in pool_plan()]


def load_side(src: str, name: str, into: Path, texts: list[str]):
    """The side's `train` and, per pool paradigm, its untrained inputs."""
    pkg = load_package(src, name, into)
    training = importlib.import_module(f"{name}.training")
    inputs = []
    for text in texts:
        pf = pkg.parse_text(text)
        corners, gold = pf.corner_matrix(), pf.gold_table()
        inputs.append((pkg.initial_exponents(corners, gold), corners, gold))
    return training, inputs


def train_once(side, k: int) -> tuple[float, tuple]:
    """Time `train` on pool paradigm `k`; the time and what it learned."""
    training, inputs = side
    expo, corners, gold = inputs[k]
    start = time.perf_counter()
    trained, trace = training.train(expo, corners, gold, training.TrainConfig())
    elapsed = time.perf_counter() - start
    return elapsed, (trained.matrix.tobytes(), trace.records, trace.converged,
                     trace.iterations)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("src_a")
    p.add_argument("src_b")
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    texts = pool_texts(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [load_side(args.src_a, "geomorph_a", Path(tmp), texts),
                 load_side(args.src_b, "geomorph_b", Path(tmp), texts)]
        ratios = []
        print("round\tA_ms\tB_ms\tB/A")
        for rnd in range(args.rounds):
            totals = [0.0, 0.0]
            for k in range(len(texts)):
                order = (0, 1) if (rnd + k) % 2 == 0 else (1, 0)
                timed = {side: train_once(sides[side], k) for side in order}
                if timed[0][1] != timed[1][1]:
                    raise SystemExit(f"round {rnd}, paradigm {k}: the two sides learned "
                                     "different results")
                for side in (0, 1):
                    totals[side] += timed[side][0]
            a, b = (t * 1e3 for t in totals)
            ratios.append(b / a)
            print(f"{rnd}\t{a:.1f}\t{b:.1f}\t{b / a:.3f}", flush=True)
        print(f"median B/A {statistics.median(ratios):.3f} over {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
