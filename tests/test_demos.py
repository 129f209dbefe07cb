"""Every demo runs to completion and prints its headline."""

from __future__ import annotations

import importlib.util

import pytest

from conftest import ROOT

HEADLINES = {
    "mv_walkthrough": "reproduced: True after 1 attempt(s)",
    "perturbation_study": "  10%     20/20 ",
    "schedule_exploration": "guided injection: reproduced in 1 attempt(s)",
    "worked_table": "  1. {unlink, rename} = 2",
}


@pytest.mark.parametrize("name", sorted(HEADLINES))
def test_demo_prints_its_headline(name, capsys):
    spec = importlib.util.spec_from_file_location(
        f"demo_{name}", ROOT / "demos" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert HEADLINES[name] in capsys.readouterr().out
