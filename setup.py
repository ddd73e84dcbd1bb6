"""Setuptools shim.

The environment this reproduction targets may be offline and lack the
``wheel`` package, in which case PEP 660 editable installs cannot build an
editable wheel.  Keeping a ``setup.py`` (and no ``[build-system]`` table in
``pyproject.toml``) lets ``pip install -e .`` fall back to the legacy
``setup.py develop`` path, which works with a bare setuptools.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# One version string, read (not imported: the build may run before the
# package is importable) from where ``repro.__version__`` is assigned.
_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of 'One for All and All for One: Scalable Consensus in a "
        "Hybrid Communication Model' (Raynal & Cao, ICDCS 2019)"
    ),
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The code is 3.9-clean (annotations are deferred via `from __future__
    # import annotations` everywhere); CI builds a wheel and runs the tier-1
    # suite on a 3.9-3.12 matrix.
    python_requires=">=3.9",
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.9",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: System :: Distributed Computing",
    ],
    # No runtime dependencies: nothing under src/ imports numpy.  The test
    # extra keeps it as the oracle that tests/test_aggregate.py holds the
    # pure-Python SeedSequence port equal to; that test skips without it.
    install_requires=[],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "numpy"],
    },
)
