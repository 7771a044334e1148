"""Every output of `tools/cli_sweep.py` keeps the bytes its committed manifest lists.

The sweep makes some 290 CLI calls in process and writes each one's argv,
exit code, stdout, stderr and trace; `tools/cli_sweep.sha256` holds the
SHA-256 of each output of the committed tree. Output bytes depend on how
the BLAS build rounds products and on libm, so on a build other than the
manifest header's the test skips and names both builds (`pytest -rs`).
"""
import importlib.util
import sys
from pathlib import Path

import pytest

import geomorph

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _cli_sweep():
    spec = importlib.util.spec_from_file_location("cli_sweep", TOOLS / "cli_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_outputs_keep_their_committed_bytes(tmp_path, capsys, monkeypatch):
    sweep = _cli_sweep()
    # the sweep changes the working directory and sys.path and drops GEOMORPH_SEED
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delenv("GEOMORPH_SEED", raising=False)
    out_dir = tmp_path / "sweep"
    code = sweep.main(str(Path(geomorph.__file__).resolve().parents[1]), str(out_dir))
    first, *moved, last = capsys.readouterr().out.splitlines()
    if last.startswith("not compared with"):
        pytest.skip(last)

    def with_argv(line):  # "changed  n.out" and the arguments of op n
        argv = (out_dir / line.split()[-1]).with_suffix(".argv")
        return f"{line}  ({' '.join(argv.read_text().split())})" if argv.exists() else line

    assert (code, last) == (0, "no output moved"), "\n".join([*map(with_argv, moved), last])
