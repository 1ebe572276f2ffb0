"""Packaging for the i2MapReduce reproduction.

Kept as a ``setup.py`` (rather than ``pyproject.toml``) so editable
installs work in environments without PEP 660 support.  The library is
pure Python with no runtime dependencies; the ``test`` extra pulls in
the suite's tooling.
"""

from setuptools import find_packages, setup

setup(
    name="i2mapreduce-repro",
    version="1.2.0",
    description=(
        "Reproduction of i2MapReduce (Zhang et al., ICDE 2016): "
        "incremental MapReduce for mining evolving big data, with "
        "pluggable parallel execution backends"
    ),
    long_description=(
        "A from-scratch reproduction of the i2MapReduce paper: a "
        "Hadoop-like MapReduce engine over a deterministic simulated "
        "cluster, fine-grain incremental processing with the MRBG-Store, "
        "the general-purpose iterative model, incremental iterative "
        "processing with change propagation control, the paper's "
        "baselines (PlainMR, HaLoop, Spark-like, Incoop-like) and one "
        "experiment module per figure/table in section 8."
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Distributed Computing",
    ],
)
