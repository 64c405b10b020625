"""Setup shim for environments without PEP 517 wheel support.

All real metadata lives in pyproject.toml; this file only enables
``pip install -e . --no-use-pep517`` on machines whose setuptools
cannot build wheels (e.g. offline boxes without the ``wheel`` package).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
