"""The package reads no data file: src/afgeo holds Python sources only, so a
wheel needs no package-data."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "afgeo"


def test_package_holds_no_data_file():
    assert [str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*")
            if p.is_file() and p.suffix not in (".py", ".pyc")] == []
