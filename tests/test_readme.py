"""The README's examples run as written."""

import re
from pathlib import Path

from qswarm import load_scenario, scenario

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def test_readme_config_example_loads():
    (text,) = fenced("ini")
    sc = load_scenario(text, "README.md")
    assert sc.lattice.dims == (256,)
    assert sc.initial_kind == "gaussian" and sc.mode == "meanfield"
    assert sc.steps == 200 and sc.output_every == 10


def test_readme_documents_every_key():
    missing = [key for key in scenario.KEYS
               if not re.search(rf"\b{re.escape(key)}\b", README)]
    assert not missing


def test_readme_library_example_runs(capsys):
    (code,) = fenced("python")
    exec(code, {})
    assert float(capsys.readouterr().out) >= 0
