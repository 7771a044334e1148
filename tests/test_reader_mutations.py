"""Bundled fixtures with one or two character edits, through the reader and the CLI.

The reader either accepts a mutant or rejects it with a `GeomorphError` that
names the offending line. A mutant it accepts runs through its kind's command
and ends in an exit code, never an uncaught exception. The model-level input
errors below may carry no position: they are about the paradigm as a whole.
"""
import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from geomorph import fixtures, parse_text
from geomorph.cli import main
from geomorph.errors import GeomorphError

NAMES_A_LINE = re.compile(r"\bline \d+\b")
MODEL_LEVEL = ("morpheme(s) never attested", "no gold affix for stem")
COMMANDS = {
    "single": ["train"],
    "classes": ["rotate", "--max-iters", "5"],
    "composition": ["compose"],
}
# characters the reader treats specially, besides those of each file
SYNTAX = " \n\t:->#.0123456789"


@st.composite
def mutants(draw):
    text = fixtures.fixture_text(draw(st.sampled_from(fixtures.FIXTURES)))
    alphabet = st.sampled_from(sorted(set(text + SYNTAX)))
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        if edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(alphabet) + text[at + (edit == "replace"):]
    return text


@settings(max_examples=250, deadline=None)
@given(mutants())
def test_a_mutated_fixture_is_read_or_rejected_at_a_line_and_its_command_exits(text):
    try:
        pf = parse_text(text)
    except GeomorphError as exc:
        assert NAMES_A_LINE.search(str(exc)), str(exc)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.par"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*COMMANDS[pf.kind()], str(path)])
    assert code in (0, 1, 2, 3)
    if code == 1:
        message = err.getvalue()
        assert NAMES_A_LINE.search(message) or any(m in message for m in MODEL_LEVEL), message
