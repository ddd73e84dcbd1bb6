"""Setuptools shim.

The environment this reproduction targets may be offline and lack the
``wheel`` package, in which case PEP 660 editable installs cannot build an
editable wheel.  Keeping a ``setup.py`` (and no ``[build-system]`` table in
``pyproject.toml``) lets ``pip install -e .`` fall back to the legacy
``setup.py develop`` path, which works with a bare setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
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
    # No hard runtime dependencies.  numpy is optional and does one thing:
    # it selects the SeedSequence backend for the sweep sketches' run
    # priorities (a SHA-256 derivation without it).  The simulator's hot
    # path does not import it.
    install_requires=[],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "numpy"],
    },
)
