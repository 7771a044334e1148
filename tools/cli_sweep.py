"""Run a fixed sweep of geomorph CLI calls in-process and write every output.

    python tools/cli_sweep.py SRC_DIR OUT_DIR

SRC_DIR is the directory that holds the `geomorph` package (a checkout's
`src`); OUT_DIR must not exist yet, so no output of an earlier sweep is left
in it. Op n writes `n.argv` (its arguments, one a line), `n.code` (the exit
code), `n.out` and `n.err` (stdout and stderr) and, when it was given
`--trace`, `n.trace` if the op wrote one. Ops run with OUT_DIR as the working
directory and name their files relative to it, so the outputs of two checkouts
compare with `diff -r OUT_A OUT_B`. Before the ops, the sweep writes the class
file MULTI_FEATURE, the flat paradigm FLAT_16 and the malformed files BAD_INPUTS
into OUT_DIR; `rotate` runs on the first as well as on the bundled Nuer classes,
`select` and `train` on the second as well as on the bundled flat fixtures,
`compose` and `select` on each of the rest. The OUT_OPS write their reports
to files in OUT_DIR, which `diff -r` compares too. The ops run in six
groups, each followed by `report` on every non-empty JSON output of its ops:
the second group is `compose` on the tied compositions TIES, the third is
LONG_RUN_OPS, the fourth LANE_TAIL_OPS, the fifth HUGE_STEP_OPS and the sixth
LARGE_LIMIT_OPS, each group run after the earlier ones so that no earlier op
number depends on it.

Last, the sweep writes MANIFEST (`MANIFEST.sha256`) into OUT_DIR: a first line
`# numpy <version>, <BLAS name> <version>, <libc name> <version>`, then one
`<sha256>  <file>` line per file in OUT_DIR but the manifest, sorted by name.
Output bytes depend on how the BLAS build rounds products and on how libm rounds
`math.sin`, `cos`, `exp`, `atan2` and `pow` (`compose` and `rotate` go through
them), so the header names both builds. `tools/cli_sweep.sha256` is the
manifest of the committed tree, and the sweep ends by comparing MANIFEST with
it. If the headers match, it prints each output whose digest changed,
is new or is gone, or "no output moved", and exits 0 only when none moved.
If they differ, it names both builds, compares nothing and exits 1. A change
that moves outputs commits the new manifest, whose diff then lists exactly
the outputs that moved:

    python tools/cli_sweep.py src /tmp/sweep
    cp /tmp/sweep/MANIFEST.sha256 tools/cli_sweep.sha256
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import platform
import sys
from pathlib import Path

FLAT = ("english_weak_verb", "german_present", "german_full",
        "latin_adjectives", "russian_class_one", "latin_deponent")
TRAIN_VARIANTS = (("--no-error-driven",), ("--eta", "0.37", "--max-iters", "3"),
                  ("--eta", "1e200"))
ROTATE_VARIANTS = (
    ("--plans", "--format", "json"),
    ("--format", "tsv"),
    ("--max-iters", "0", "--plans", "--format", "json"),
    ("--margin-floor", "0.3", "--runs", "3", "--seed", "2", "--plans", "--format", "json"),
    ("--runs", "2", "--seed", "7", "--format", "tsv"),
    # floors at or below zero: a lane converges once every margin is positive
    ("--margin-floor", "0", "--runs", "3", "--seed", "5", "--plans", "--format", "json"),
    ("--margin-floor", "-0.1", "--runs", "2", "--seed", "3", "--plans", "--format", "json"),
    # unconverged runs: their traces carry the worst margins of a search cut short
    ("--max-iters", "2", "--runs", "3", "--seed", "1", "--format", "json"),
)
COMPOSE_VARIANTS = ((), *(("--seed", str(seed)) for seed in range(1, 7)),
                    ("--stepsize", "0.05", "--margin", "0"), ("--margin", "0.3"),
                    ("--max-iters", "0"), ("--max-iters", "5"))
# negative seeds: their own random streams, not those of the positive seeds
NEGATIVE_SEEDS = ((["compose", "german_plurals", "--seed", "-3", "--format", "json"], False),
                  (["rotate", "nuer_classes", "--seed", "-1", "--runs", "2", "--plans",
                    "--format", "json"], True))
# A class file with four features (3 x 2 x 2 x 2 values, 24 cells): a cell's
# activation sums four coordinates, so a change in how products are summed shows
# in its rotate outputs, where Nuer's two features may hide it. Per class: its
# lexeme count and its exponent per cell, cells in cross-product order.
MULTI_FEATURE = "classes_3x2x2x2.par"
MULTI_SHAPE = (3, 2, 2, 2)
MULTI_CLASSES = {"C1": (20, "caddcacdaaddaaddbabdcadd"), "C2": (9, "cadacacaaaddaaddbabdcadd"),
                 "C3": (5, "caddcacdaaddaaddbabdcabd"), "C4": (3, "caddcacdaaddaaddbaddcadd"),
                 "C5": (2, "caddcacdaaddaaddcaddcadd")}
MULTI_ROTATE_VARIANTS = (
    (("--plans", "--format", "json"), False),
    (("--runs", "3", "--margin-floor", "0.3", "--seed", "4", "--plans", "--format", "json"), True),
    (("--runs", "2", "--seed", "1", "--format", "tsv"), False),
    (("--margin-floor", "0", "--runs", "2", "--seed", "3", "--plans", "--format", "json"), True),
    (("--margin-floor", "-0.1", "--runs", "2", "--seed", "5", "--format", "tsv"), True),
)
# A flat paradigm with four features of four values (256 cells, 16 coordinates),
# each cell realized by the exponent of its highest value index. At this shape
# a product over all cells, a product per cell and an in-order sum of a cell's
# coordinate rows all round differently, so a change in how activations are
# computed shows in its train outputs.
FLAT_16 = "flat_4x4x4x4.par"
FLAT_16_OPS = ((["select", FLAT_16, "--format", "json"], False),
               (["train", FLAT_16, "--format", "json"], True))
# A large step on the 16-coordinate paradigm and on a fixture: updates move
# columns far, so a change in how the delta update rounds shows in the traces.
LARGE_STEP = ("--eta", "2.5", "--max-iters", "5")
# Files the reader rejects: authored angles that are not finite (exit 1 with
# a line and column), a feature named like a value of an earlier feature, a
# later CLASS block whose cells are not the first block's, and FORM lines that
# do not name one plane value each, once per stem.
_COMPOSITION = "FEATURE number: sg pl\nPLANE pl sg\nSTEM Kind{}\nSTEM Auto\n" \
    "AFFIX 0\nAFFIX s{}\nFORM Kind sg -> 0\nFORM Kind pl -> 0\n" \
    "FORM Auto sg -> 0\nFORM Auto pl -> s\n"
_CASE_COMPOSITION = "FEATURE case: nom gen\n" + _COMPOSITION.format("", "")
_CLASSES = "FEATURE number: sg pl\nMORPHEMES: 0 s\n" \
    "CLASS A LEXEMES 2\nCELL sg -> 0\nCELL pl -> s\nEND\nCLASS B LEXEMES 1\n{}END\n"
BAD_INPUTS = {
    "angle_nan.par": _COMPOSITION.format(" @ nan", ""),
    "angle_inf.par": _COMPOSITION.format("", " @ inf"),
    "feature_named_like_value.par":
        "FEATURE number: sg pl\nFEATURE sg: a b\nMORPHEMES: 0 s\n"
        "CELL sg a -> 0\nCELL sg b -> 0\nCELL pl a -> s\nCELL pl b -> s\n",
    # a composition section without a PLANE line, and a FEATURE line after a CELL
    "composition_without_plane.par": _COMPOSITION.replace("PLANE pl sg\n", "").format("", ""),
    "feature_after_cell.par":
        "FEATURE number: sg pl\nMORPHEMES: 0 s\nCELL sg -> 0\nCELL pl -> s\n"
        "FEATURE case: nom acc\n",
    # a later CLASS block with the first block's cells out of order, and one short of them
    "class_cells_out_of_order.par": _CLASSES.format("CELL pl -> s\nCELL sg -> 0\n"),
    "class_short.par": _CLASSES.format("CELL sg -> s\n"),
    # a FORM on no plane value, and a second FORM on one stem and plane value
    "form_without_plane_value.par": _CASE_COMPOSITION + "FORM Kind nom -> s\n",
    "form_plane_value_twice.par": _CASE_COMPOSITION + "FORM Kind sg gen -> s\n",
}
# Two compositions with an exact tie: Kind + a and Kind + b are both 0.25 rad
# from the pl axis. The gold affix is b in one file and a in the other.
_TIE = "FEATURE number: sg pl\nPLANE pl sg\nSTEM Kind @ 0.0\nAFFIX a @ 0.5\n" \
    "AFFIX b @ -0.5\nAFFIX c @ 1.5707963267948966\nFORM Kind pl -> {}\nFORM Kind sg -> c\n"
TIES = {"tie.par": _TIE.format("b"), "tie_gold_a.par": _TIE.format("a")}
TIE_OPS = [(["compose", name, "--format", fmt], False) for name in TIES for fmt in ("json", "tsv")]
# Angle learners that never converge: a German plurals seed that runs all 500
# passes (exit 2), and a composition whose every pass ends where it began
# (affix c is gold on both axes and d sits at its angle), once at 100,000 passes.
OSCILLATION = "oscillation.par"
_OSCILLATION = "FEATURE number: sg pl\nPLANE pl sg\nSTEM Kind\nAFFIX c @ 0.3\n" \
    "AFFIX d @ 0.3\nFORM Kind pl -> c\nFORM Kind sg -> c\n"
LONG_RUN_OPS = [
    *((["compose", "german_plurals", "--seed", "100040", "--format", fmt], False)
      for fmt in ("json", "tsv")),
    *((["compose", OSCILLATION, "--format", fmt], False) for fmt in ("json", "tsv")),
    (["compose", OSCILLATION, "--max-iters", "100000", "--format", "json"], False),
]
# Rotation searches whose last lanes finish alone after the others converged:
# the full batch with plans as TSV (the first group writes its JSON report at
# seed 0, the default); the default shape (one run, 500 iterations) at seeds 3
# and 30, where the last two Nuer lanes take 3,000 (never converging) and 2,878
# sub-iterations at seed 3, the last one 2,788 at seed 30, and every other at
# most 202; and the four-feature class file to 500 iterations,
# three runs a class. Last, that file's plans as TSV at the default shape: no
# other op writes TSV plans but the re-renders.
LANE_TAIL_OPS = [
    (["rotate", "nuer_classes", "--runs", "100", "--plans", "--format", "tsv"], False),
    *((["rotate", "nuer_classes", "--seed", seed, "--plans", "--format", "json"], True)
      for seed in ("3", "30")),
    (["rotate", MULTI_FEATURE, "--runs", "3", "--max-iters", "500", "--plans", "--format",
      "json"], True),
    (["rotate", MULTI_FEATURE, "--plans", "--format", "tsv"], False),
]
# An angle learner whose step overflows an angle to inf within three passes (exit 1)
HUGE_STEP_OPS = [(["compose", "german_plurals", "--stepsize", "1e308", "--max-iters", "3",
                   "--format", "json"], False)]
# The default rotate search under an iteration limit far above any it reaches: at seed 0
# every lane converges within 605 sub-iterations, so the limit must cost nothing
LARGE_LIMIT_OPS = [(["rotate", "nuer_classes", "--max-iters", "100000", "--plans", "--format",
                     "json"], False)]
WRONG_KIND = (("select", "german_plurals"), ("select", "nuer_classes"),
              ("train", "nuer_classes"), ("init", "german_plurals"),
              ("compose", "english_weak_verb"), ("rotate", "english_weak_verb"),
              # a wrong kind and a bad option at once
              ("init", "german_plurals", "--min-lexemes", "0"))
# Bad values of options that a file with authored angles does not read but echoes
AUTHORED_BAD_OPTIONS = (("--stepsize", "nan"), ("--margin", "inf"), ("--max-iters", "-1"))
# Reports and a trace written to files named in the op: the sweep keeps them in OUT_DIR
OUT_OPS = (
    (["select", "english_weak_verb", "--format", "json", "--out", "select.json"], False),
    (["report", "select.json", "--out", "select.tsv"], False),
    (["init", "nuer_classes", "--format", "tsv", "--out", "init.tsv"], False),
    (["train", "german_full", "--format", "json", "--out", "train.json"], True),
)


def ops() -> list[tuple[list[str], bool]]:
    """Every op but the `report` re-renders, as (argv, gets --trace)."""
    sweep = []
    for name in FLAT:
        for fmt in ("json", "tsv"):
            sweep.append((["select", name, "--format", fmt], False))
            sweep.append((["init", name, "--format", fmt], False))
            sweep.append((["train", name, "--format", fmt], True))
        for variant in TRAIN_VARIANTS:
            sweep.append((["train", name, *variant, "--format", "json"], True))
    for fmt in ("json", "tsv"):
        sweep.append((["init", "nuer_classes", "--format", fmt], False))
    for variant in ROTATE_VARIANTS:
        sweep.append((["rotate", "nuer_classes", *variant], True))
    for variant in COMPOSE_VARIANTS:
        for fmt in ("json", "tsv"):
            sweep.append((["compose", "german_plurals", *variant, "--format", fmt], False))
    for fmt in ("json", "tsv"):
        sweep.append((["compose", "spanish_verbs", "--format", fmt], False))
    sweep.extend(NEGATIVE_SEEDS)
    sweep.extend((list(argv), False) for argv in WRONG_KIND)
    sweep.append((["rotate", "nuer_classes", "--runs", "100", "--seed", "0", "--plans",
                   "--format", "json"], False))
    sweep.extend((["rotate", MULTI_FEATURE, *variant], traced)
                 for variant, traced in MULTI_ROTATE_VARIANTS)
    sweep.extend(([command, "nuer_classes", "--min-lexemes", "0"], False)
                 for command in ("init", "rotate"))
    sweep.extend(FLAT_16_OPS)
    sweep.extend((["train", name, *LARGE_STEP, "--format", "json"], True)
                 for name in (FLAT_16, "latin_adjectives"))
    sweep.extend(([command, name, "--format", "json"], False)
                 for name in BAD_INPUTS for command in ("compose", "select"))
    sweep.extend((["compose", "spanish_verbs", *option, "--format", "json"], False)
                 for option in AUTHORED_BAD_OPTIONS)
    sweep.extend(OUT_OPS)
    return sweep


def _feature_lines(shape: tuple[int, ...], morphemes: str) -> tuple[list, list[str]]:
    """The value names of features with `shape` values, and the file's header lines."""
    features = [[f"f{k}v{v}" for v in range(n)] for k, n in enumerate(shape)]
    lines = [f"FEATURE f{k}: {' '.join(values)}" for k, values in enumerate(features)]
    return features, lines + [f"MORPHEMES: {morphemes}"]


def multi_feature_text() -> str:
    """The class file MULTI_FEATURE, from MULTI_SHAPE and MULTI_CLASSES."""
    features, lines = _feature_lines(MULTI_SHAPE, "a b c d")
    for label, (lexemes, cells) in MULTI_CLASSES.items():
        lines.append(f"CLASS {label} LEXEMES {lexemes}")
        lines += [f"CELL {' '.join(cell)} -> {m}"
                  for cell, m in zip(itertools.product(*features), cells, strict=True)]
        lines.append("END")
    return "\n".join(lines) + "\n"


def flat_16_text() -> str:
    """The flat paradigm FLAT_16: a cell takes the exponent of its highest value index."""
    features, lines = _feature_lines((4, 4, 4, 4), "a b c d")
    lines += [f"CELL {' '.join(cell)} -> {'abcd'[max(index)]}"
              for index, cell in zip(itertools.product(range(4), repeat=4),
                                     itertools.product(*features))]
    return "\n".join(lines) + "\n"


MANIFEST = "MANIFEST.sha256"
COMMITTED = Path(__file__).resolve().with_suffix(".sha256")  # the committed tree's manifest


def write_manifest() -> int:
    """Write MANIFEST into the working directory; return how many files it lists."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    names = sorted(path.name for path in Path().iterdir() if path.name != MANIFEST)
    libc = " ".join(platform.libc_ver())
    lines = [f"# numpy {np.__version__}, {blas['name']} {blas['version']}, {libc}"]
    lines += [f"{hashlib.sha256(Path(name).read_bytes()).hexdigest()}  {name}" for name in names]
    Path(MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(names)


def compare_manifest(committed: Path) -> int:
    """Print how MANIFEST differs from `committed`; return how many outputs moved, or -1.

    Manifests of two BLAS or libm builds are not compared, since output bytes
    depend on the build: then both headers are printed and -1 is returned.
    """
    def read(path):
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        return header, {name: digest for digest, name in (line.split("  ", 1) for line in lines)}

    (header, new), (committed_header, old) = read(Path(MANIFEST)), read(committed)
    if header != committed_header:
        print(f"not compared with {committed.name}: this build is {header[2:]!r}, "
              f"{committed.name} was made on {committed_header[2:]!r}")
        return -1
    moved = sorted(name for name in new.keys() | old.keys() if new.get(name) != old.get(name))
    for name in moved:
        how = "new" if name not in old else "gone" if name not in new else "changed"
        print(f"{how:8} {name}")
    print(f"{len(moved)} outputs moved against {committed.name}" if moved else "no output moved")
    return len(moved)


def run(main, n: int, argv: list[str]) -> str:
    """Run op `n`, write its outputs, return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    files = {"argv": "\n".join(argv) + "\n", "code": f"{code}\n",
             "out": out.getvalue(), "err": err.getvalue()}
    for suffix, text in files.items():
        Path(f"{n}.{suffix}").write_text(text, encoding="utf-8")
    return files["out"]


def main(src_dir: str, out_dir: str) -> int:
    src = Path(src_dir).resolve()
    sys.path.insert(0, str(src))
    os.environ.pop("GEOMORPH_SEED", None)
    from geomorph import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"geomorph was imported from {cli.__file__}, not from {src}")
    Path(out_dir).mkdir(parents=True)
    os.chdir(out_dir)
    Path(MULTI_FEATURE).write_text(multi_feature_text(), encoding="utf-8")
    Path(FLAT_16).write_text(flat_16_text(), encoding="utf-8")
    for name, text in {**BAD_INPUTS, **TIES, OSCILLATION: _OSCILLATION}.items():
        Path(name).write_text(text, encoding="utf-8")
    n = renders = 0
    for group in (ops(), TIE_OPS, LONG_RUN_OPS, LANE_TAIL_OPS, HUGE_STEP_OPS, LARGE_LIMIT_OPS):
        saved = []
        for argv, traced in group:
            if traced:
                argv = argv + ["--trace", f"{n}.trace"]
            if run(cli.main, n, argv) and "json" in argv:
                saved.append(f"{n}.out")
            n += 1
        for path in saved:
            run(cli.main, n, ["report", path])
            n += 1
        renders += len(saved)
    print(f"{n} ops, {renders} report re-renders, "
          f"{len(list(Path().glob('*.trace')))} trace files, "
          f"{write_manifest()} files in {out_dir}/{MANIFEST}")
    return 0 if compare_manifest(COMMITTED) == 0 else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(*sys.argv[1:]))
