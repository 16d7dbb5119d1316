"""The package's public names: every export resolves, and the README
lists exactly the exports."""

import re
from pathlib import Path

import msseg


def test_exports_resolve_and_are_listed():
    for name in msseg.__all__:
        assert getattr(msseg, name) is not None, name
        assert name in dir(msseg), name


def test_readme_public_api_names_exactly_the_exports():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme.split("Public API:", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`", paragraph)) == set(msseg.__all__)
