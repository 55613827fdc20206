import dataclasses
import re
from pathlib import Path

import entwitness
from entwitness import ScenarioConfig, parse_config
from entwitness.scenario import PRESETS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    # the library example in README uses only the exported API, and runs
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_config_table_matches_schema():
    # the key column of the config-file table, with `x_a/b` standing for x_a and x_b
    section = README.read_text(encoding="utf-8").split("### Config file")[1].split("\n#")[0]
    documented = []
    for key in re.findall(r"^\| `(\w+(?:/b)?)` ", section, re.M):
        documented += [key[:-2], key[:-3] + "b"] if key.endswith("/b") else [key]
    assert sorted(documented) == sorted(f.name for f in dataclasses.fields(ScenarioConfig))


def test_readme_config_example_loads():
    # the example config file in README is the fig1a_d16 preset
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    assert parse_config(blocks[0]) == PRESETS["fig1a_d16"]


def test_readme_layout_table_names_every_module():
    # the module column of the "Library layout" table, against the package's files
    section = README.read_text(encoding="utf-8").split("## Library layout")[1].split("\n## ")[0]
    documented = re.findall(r"^\| `entwitness\.(\w+)` ", section, re.M)
    package = Path(entwitness.__file__).parent
    modules = [path.stem for path in package.glob("*.py")
               if path.stem not in ("__init__", "__main__")]
    assert sorted(documented) == sorted(modules)
