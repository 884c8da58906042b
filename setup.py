"""Legacy setup shim.

The execution environment is offline and lacks the ``wheel`` package, so
``pip install -e .`` must take the legacy ``setup.py develop`` path; all
real metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
