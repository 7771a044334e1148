"""Command-line interface.

`init` emits exponent vectors from count initialization, `select` runs the
activation/selection pipeline against the gold table, `train` runs
delta-rule training, `compose` runs pair selection or angle learning,
`rotate` derives inflection classes by rotation, and `report` re-renders a
saved JSON report as TSV. Every command but `report` is only its computation;
`run_command` does the rest of its pipeline.

Exit codes: 0 success (and convergence where that applies), 1 bad input,
2 not converged, 3 a tie while evaluating against gold.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from . import fixtures, report as rpt
# the benchmark's tracer rebinds select_affix_by_angle in this module: it stays imported
from .composition import AngleLearnConfig, learn_angles, select_affix_by_angle, verify_gold_forms
from .errors import GeomorphError
from .exponence import activations, evaluate, initial_exponents
from .paradigm import ParadigmFile, parse
from .rotations import (
    RotationLearnConfig,
    base_configuration,
    class_of_base,
    learn_all_classes,
)
from .training import TrainConfig, train

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_TIE = 3


def load_paradigm(name: str) -> ParadigmFile:
    path = Path(name)
    if path.exists():
        return parse(path)
    if name in fixtures.FIXTURES:
        return fixtures.load(name)
    raise GeomorphError(f"no such file or bundled fixture: {name}")


def write(path, text: str):
    """Write `text` to the file at `path`, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def emit(args, report: dict):
    write(args.out, rpt.dumps(report) if args.format == "json" else rpt.to_tsv(report))


def seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GEOMORPH_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise GeomorphError(f"GEOMORPH_SEED must be an integer, got {env!r}")


_NEEDS_TABLE = ("this command needs a flat cell table (try rotate for class files, "
                "compose for stem/affix files)")
# Per command: the paradigm kinds it takes, and the error for a file of any other kind
KINDS = {
    "init": (("classes", "single"), "init needs a cell table or class blocks"),
    "select": (("single",), _NEEDS_TABLE),
    "train": (("single",), _NEEDS_TABLE),
    "compose": (("composition",), "compose needs a composition section (STEM/AFFIX/FORM)"),
    "rotate": (("classes",), "rotate needs CLASS blocks"),
}
# Options that only route output; a report's config echoes every other option
ROUTING = frozenset(("command", "func", "format", "out", "trace", "plans"))


def run_command(args) -> int:
    """Load and kind-check the paradigm, run the command, write its trace and report.

    The command, `args.func(args, pf, config)`, returns its report sections,
    its exit code and its trace records (None when it writes no trace).
    """
    pf = load_paradigm(args.paradigm)
    kinds, wrong_kind = KINDS[args.command]
    if pf.kind() not in kinds:
        raise GeomorphError(wrong_kind)
    config = {key: value for key, value in vars(args).items() if key not in ROUTING}
    if "seed" in config:
        config["seed"] = seed_from(args)
    sections, code, records = args.func(args, pf, config)
    if records is not None and args.trace:
        write(args.trace, "".join(map(rpt.dumps_line, records)))
    emit(args, rpt.build_report(args.command, config, **sections))
    return code


def cmd_init(args, pf, config):
    if args.min_lexemes < 1:  # a cell table does not read it, but its report echoes it
        raise ValueError(f"min_lexemes must be at least 1, got {args.min_lexemes}")
    sections = {}
    if pf.kind() == "classes":
        inv = pf.class_inventory()
        corners = inv.corners
        expo = base_configuration(inv, args.min_lexemes)
        sections["base_class"] = class_of_base(expo, inv)
    else:
        corners = pf.corner_matrix()
        expo = initial_exponents(corners, pf.gold_table(corners=corners))
    sections["exponents"] = rpt.labeled_matrix(
        corners.fs.value_names, expo.morphemes, expo.matrix
    )
    return sections, EXIT_OK, None


def _evaluated(corners, gold, expo):
    """Evaluate `expo` against gold; also the report sections select and train share."""
    acts = activations(corners, expo)
    ev = evaluate(acts, gold)
    sections = {
        "exponents": rpt.labeled_matrix(corners.fs.value_names, expo.morphemes, expo.matrix),
        "activations": rpt.labeled_matrix(
            [c.label() for c in acts.row_labels], acts.morphemes, acts.matrix
        ),
        "winners": [w if w is not None else "-" for w in ev.predicted],
        "mismatches": list(ev.mismatch_labels()),
        "min_margin": ev.min_margin,
    }
    return ev, sections


def cmd_select(args, pf, config):
    corners = pf.corner_matrix()
    gold = pf.gold_table(corners=corners)
    ev, sections = _evaluated(corners, gold, initial_exponents(corners, gold))
    sections.update(
        gold=list(ev.gold),
        margins=list(ev.margins),
        ties=[ev.row_labels[i].label() for i in ev.ties],
        correct=ev.num_correct,
        cells=len(ev.row_labels),
    )
    return sections, EXIT_TIE if ev.ties else EXIT_OK, None


def cmd_train(args, pf, config):
    corners = pf.corner_matrix()
    gold = pf.gold_table(corners=corners)
    expo = initial_exponents(corners, gold)
    cfg = TrainConfig(
        eta=args.eta, error_driven=args.error_driven, max_iters=args.max_iters
    )
    trained, trace = train(expo, corners, gold, cfg)
    records = [r._asdict() for r in trace.records]
    ev, sections = _evaluated(corners, gold, trained)
    sections.update(
        converged=trace.converged,
        iterations=trace.iterations,
        trace=records,
    )
    code = EXIT_OK if trace.converged else EXIT_NOT_CONVERGED
    return sections, EXIT_TIE if ev.ties else code, records


def cmd_compose(args, pf, config):
    gold_forms = pf.gold_forms()
    model = pf.angle_model()
    cfg = AngleLearnConfig(
        stepsize=args.stepsize, margin=args.margin, max_iters=args.max_iters, seed=config["seed"]
    )
    converged, iterations = True, 0  # authored angles: nothing to learn
    if model is None:
        result = learn_angles(
            pf.stem_labels(), pf.affix_labels(), gold_forms, pf.plane, cfg,
            initial=pf.authored_angles(),
        )
        model, converged, iterations = result.model, result.converged, result.iterations
    # one selection per gold form: a form that selected its gold affix is no failure
    failures = verify_gold_forms(model, pf.stem_labels(), pf.affix_labels(), gold_forms)
    got = {(stem, value): selected for stem, value, _, selected in failures}
    selections = [{"stem": stem, "slot": value, "gold": affix,
                   "selected": got.get((stem, value), affix)}
                  for (stem, value), affix in sorted(gold_forms.items())]
    ties = [f"{s['stem']},{s['slot']}" for s in selections if s["selected"] is None]
    angles = [
        {
            "label": label,
            "radians": model.entries[label],
            "degrees": math.degrees(model.entries[label]),
            "x": math.cos(model.entries[label]),
            "y": math.sin(model.entries[label]),
        }
        for label in list(pf.stem_labels()) + list(pf.affix_labels())
    ]
    sections = {
        "plane": {"x": pf.plane[0], "y": pf.plane[1]},
        "angles": angles,
        "selections": selections,
        "failures": len(failures),
        "converged": converged,
        "iterations": iterations,
    }
    if ties:  # only a report with a tie has the section, so the others keep their bytes
        sections["ties"] = ties
    code = EXIT_OK if converged and not failures else EXIT_NOT_CONVERGED
    return sections, EXIT_TIE if ties else code, None


def cmd_rotate(args, pf, config):
    inv = pf.class_inventory()
    cfg = RotationLearnConfig(base_increment=args.increment, margin_floor=args.margin_floor,
                              max_iters=args.max_iters, runs=args.runs, seed=config["seed"])
    stats, base_label = learn_all_classes(inv, cfg, args.min_lexemes)
    records = ({"class": s.class_label, "run": run, **record._asdict()}
               for s in stats for run, record in enumerate(s.run_records))
    columns = ("lexemes", "distance", "runs", "converged_runs", "mean_iterations",
               "mean_min_margin", "smallest_margin")
    rows = [{"class": s.class_label, **{key: getattr(s, key) for key in columns}} for s in stats]
    sections = {"base_class": base_label, "classes": rows}
    if args.plans:
        plans = [s.first_plan for s in stats]
        sections["plans"] = rpt.records({
            "class": [s.class_label for s in stats],
            "converged": [plan is not None for plan in plans],
            "rotations": [rpt.records({"i": plan.axis_i, "j": plan.axis_j, "theta": plan.theta}
                                      if plan else {}) for plan in plans],
        })
    all_reached = all(s.converged_runs > 0 for s in stats)
    return sections, EXIT_OK if all_reached else EXIT_NOT_CONVERGED, records


def cmd_report(args) -> int:
    saved = rpt.loads(Path(args.saved).read_text(encoding="utf-8"))
    write(args.out, rpt.to_tsv(saved))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with code 1, bad input, as documented.

    argparse exits with 2, which here means "not converged"; subparsers take this class too.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; callers must not modify it."""
    p = _Parser(
        prog="geomorph",
        description="Geometric inflectional morphology: selection, training, composition, rotation",
    )
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices  # each command's own parser, by name, for main

    def common(sp):
        sp.add_argument("--format", choices=("tsv", "json"), default="tsv")
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")

    sp = sub.add_parser("init", help="count-based exponent initialization")
    sp.add_argument("paradigm", help="paradigm file path or bundled fixture name")
    sp.add_argument("--min-lexemes", type=int, default=3)
    common(sp)
    sp.set_defaults(func=cmd_init)

    sp = sub.add_parser("select", help="activations, winners, and gold comparison")
    sp.add_argument("paradigm")
    common(sp)
    sp.set_defaults(func=cmd_select)

    sp = sub.add_parser("train", help="delta-rule training to the gold table")
    sp.add_argument("paradigm")
    sp.add_argument("--eta", type=float, default=0.1)
    sp.add_argument("--max-iters", type=int, default=100)
    sp.add_argument("--error-driven", dest="error_driven", action="store_true", default=True)
    sp.add_argument("--no-error-driven", dest="error_driven", action="store_false")
    sp.add_argument("--trace", default=None, help="also write the trace as JSON lines here")
    common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("compose", help="stem+affix selection or angle learning")
    sp.add_argument("paradigm")
    sp.add_argument("--stepsize", type=float, default=0.01)
    sp.add_argument("--margin", type=float, default=0.05)
    sp.add_argument("--max-iters", type=int, default=500)
    sp.add_argument("--seed", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_compose)

    sp = sub.add_parser("rotate", help="derive inflection classes by rotation")
    sp.add_argument("paradigm")
    sp.add_argument("--increment", type=float, default=0.1)
    sp.add_argument("--margin-floor", type=float, default=0.02)
    sp.add_argument("--max-iters", type=int, default=500)
    sp.add_argument("--runs", type=int, default=1)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--min-lexemes", type=int, default=3)
    sp.add_argument("--plans", action="store_true",
                    help="include one learned rotation plan per class")
    sp.add_argument("--trace", default=None,
                    help="also write one JSON line per (class, run) here")
    common(sp)
    sp.set_defaults(func=cmd_rotate)

    sp = sub.add_parser("report", help="re-render a saved JSON report as TSV")
    sp.add_argument("saved")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_report)

    return p


def main(argv=None) -> int:
    """Run one command line, parsed once by its command's parser. An argv naming no command,
    or with arguments its command does not take, goes to the top parser, which reports it."""
    argv = sys.argv[1:] if argv is None else argv
    command = build_parser().commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if command is None or rest:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args) if args.func is cmd_report else run_command(args)
    except (GeomorphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
