"""README.md's examples run as written."""

import json
import math
import re
from pathlib import Path

from charspec.cli import parse_config, run_job

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(lang):
    (block,) = re.findall(rf"^```{lang}\n(.*?)^```$", README, re.S | re.M)
    return block


def test_library_example_finds_the_periodic_spectrum(capsys):
    scope = {}
    exec(_block("python"), scope)
    roots = sorted(scope["report"].roots, key=lambda r: r.location.imag)
    assert [r.multiplicity for r in roots] == [1, 1, 1]
    for r, want in zip(roots, (-2j * math.pi, 0.0, 2j * math.pi)):
        assert abs(r.location - want) < 1e-9
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_cli_example_config_runs():
    text = _block("json")
    cfg = parse_config(text)
    assert json.loads(text)["outputs"]["grid"] == [5, 7] and cfg.grid == (5, 7)
    result = run_job(cfg)
    assert result.passed and len(result.records) == 3
