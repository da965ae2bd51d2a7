"""The README's library layout, CLI options, scan record keys and pass size are the
package's own."""
import argparse
import re
from dataclasses import fields

from leolink.cli import build_parser
from leolink.discovery import ScanRecord
from leolink.probe import PASS_TICKS
from tests.conftest import REPO_ROOT


def test_readme_module_list_names_every_module():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Library layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py) ", layout, flags=re.MULTILINE)
    modules = sorted(p.name for p in (REPO_ROOT / "src" / "leolink").glob("*.py")
                     if p.name != "__init__.py")
    assert sorted(listed) == modules



def test_readme_cli_section_names_every_option():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    [commands] = [action.choices for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    unnamed = [f"{command} {option}" for command, parser in commands.items()
               for action in parser._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"
               and not re.search(re.escape(option) + r"(?![\w-])", section)]
    assert unnamed == []

def test_readme_scan_record_keys_are_the_record_fields():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("**Scan records** ("):].split("\n\n", 2)[1]
    documented = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert documented == [f.name for f in fields(ScanRecord)]


def test_readme_states_the_one_pass_size():
    # Every "pass of N ticks" (or block, chunk) the README states is the constant.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"\b(?:pass(?:es)?|blocks?|chunks?) of\s+([\d,]+)\s+ticks", readme)
    assert len(stated) >= 2
    assert {int(n.replace(",", "")) for n in stated} == {PASS_TICKS}
