"""Smoke test of the example scripts: each one's `main()` runs to exit 0,
writing its artifacts under a temporary directory."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts")
                 .glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_main_exits_0(path, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(path), str(tmp_path / "out")])
    assert module.main() == 0
