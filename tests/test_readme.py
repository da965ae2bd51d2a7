"""The README's library layout lists the package's modules as they are."""
import re

from tests.conftest import REPO_ROOT


def test_readme_module_list_names_every_module():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Library layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py) ", layout, flags=re.MULTILINE)
    modules = sorted(p.name for p in (REPO_ROOT / "src" / "leolink").glob("*.py")
                     if p.name != "__init__.py")
    assert sorted(listed) == modules
