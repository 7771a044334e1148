"""Bundled paradigm files and a loader for them."""
from __future__ import annotations

import os

from ..paradigm import ParadigmFile, parse_text

_DIR = os.path.dirname(__file__)  # the files are read anew on every call
FIXTURES = tuple(sorted(f.removesuffix(".par") for f in os.listdir(_DIR) if f.endswith(".par")))


def fixture_text(name: str) -> str:
    if name not in FIXTURES:
        raise KeyError(f"no bundled fixture named {name!r}")
    with open(f"{_DIR}/{name}.par", encoding="utf-8") as f:
        return f.read()


def load(name: str) -> ParadigmFile:
    return parse_text(fixture_text(name))
