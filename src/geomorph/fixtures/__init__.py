"""Bundled paradigm files and a loader for them."""
from __future__ import annotations

from importlib import resources

from ..paradigm import ParadigmFile, parse_text

_FILES = resources.files(__package__)  # the files are read anew on every call
FIXTURES = tuple(sorted(f.name.removesuffix(".par") for f in _FILES.iterdir()
                        if f.name.endswith(".par")))


def fixture_text(name: str) -> str:
    if name not in FIXTURES:
        raise KeyError(f"no bundled fixture named {name!r}")
    return (_FILES / f"{name}.par").read_text(encoding="utf-8")


def load(name: str) -> ParadigmFile:
    return parse_text(fixture_text(name))
