"""Every name in every ``repro`` package's ``__all__`` resolves.

The package list is read off the source tree, not off the import system,
so the same check run against an installed copy
(``python tests/test_exports.py`` after ``pip install -e .``, with no
``PYTHONPATH``) also fails on a package the install left out.
"""

import importlib
from pathlib import Path
from typing import List

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"


def package_names() -> List[str]:
    """``repro`` and every package under it, from its ``__init__.py`` files."""
    return sorted(
        ".".join(("repro",) + path.parent.relative_to(SOURCE).parts)
        for path in SOURCE.rglob("__init__.py")
    )


def unresolved_exports() -> List[str]:
    """``package.name`` of each ``__all__`` entry the package cannot produce
    (lazy module-level ``__getattr__`` names included)."""
    missing = []
    for name in package_names():
        package = importlib.import_module(name)
        for export in getattr(package, "__all__", ()):
            if not hasattr(package, export):
                missing.append(f"{name}.{export}")
    return missing


def test_every_package_is_found():
    names = package_names()
    assert {"repro", "repro.api", "repro.engine", "repro.engine.remote", "repro.obs"} <= set(names)


def test_every_export_resolves():
    assert unresolved_exports() == []


if __name__ == "__main__":
    missing = unresolved_exports()
    if missing:
        raise SystemExit(f"unresolved exports: {', '.join(missing)}")
    print(f"{len(package_names())} packages, every __all__ entry resolves")
