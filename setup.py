"""Packaging metadata for the ``repro`` package.

This file is the project's only packaging metadata.  The version is read
from ``src/repro/_version.py`` so it has one definition.  Without the
``wheel`` package (required by PEP 660 editable installs), pip falls back
to the legacy ``setup.py develop`` path.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).resolve().parent / "src" / "repro" / "_version.py"
_match = re.search(
    r'^__version__\s*=\s*["\']([^"\']+)["\']', _VERSION_FILE.read_text(), re.M
)
if _match is None:
    raise RuntimeError(f"no __version__ found in {_VERSION_FILE}")

setup(
    name="repro",
    version=_match.group(1),
    description=(
        "Eager-SGD partial collectives (solo/majority allreduce) and the "
        "distributed training system around them"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
)
