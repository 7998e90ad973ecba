"""Packaging for the ``repro`` library (``src/repro``).

``pip install .`` (or ``pip install -e .``, or ``python setup.py develop``
where no ``wheel`` package is available) installs the package with numpy as
its only runtime dependency.  The version is read as text from
``src/repro/__init__.py``: an isolated build has no numpy, so importing the
package to ask it would fail.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Reproduction of DeepMVI: missing value imputation on "
                "multidimensional time series",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    python_requires=">=3.10",
)
