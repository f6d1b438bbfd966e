"""A wheel carries the data files the package reads: pyproject.toml's
package-data lists every non-Python file under src/afgeo, and nothing else."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "afgeo"


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="tomllib is in the standard library from 3.11")
def test_package_data_lists_every_data_file():
    import tomllib

    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    listed = config["tool"]["setuptools"]["package-data"]["afgeo"]
    on_disk = sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*")
                     if p.is_file() and p.suffix not in (".py", ".pyc"))
    assert [name for name in listed if not (PACKAGE / name).is_file()] == []
    assert [name for name in on_disk if name not in listed] == []
