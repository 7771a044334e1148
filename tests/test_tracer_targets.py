"""Every name the benchmark's tracer rebinds is still defined where the tracer looks for it.

`perfbench/tracing.py` wraps each `TARGETS` entry with `owner.__dict__[attr]`,
so a renamed or moved function fails only a traced benchmark run. This test
imports the tracer without writing anything next to it and checks each name.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return [(owner, attr) for owner, attr, _, _ in module.TARGETS]


@pytest.mark.parametrize("owner,attr", _targets(),
                         ids=lambda x: x if type(x) is str else x.__name__.split(".")[-1])
def test_tracer_target_is_defined_in_its_owner(owner, attr):
    assert attr in owner.__dict__, f"{owner.__name__} no longer defines {attr}"
