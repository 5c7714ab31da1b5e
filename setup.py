from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Polylogarithmic Time Algorithms for Shortest "
        "Path Forests in Programmable Matter' (PODC 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    extras_require={
        # Optional vectorized execution backend (see repro.backend):
        # rounds, component labeling, and grid-index builds lower onto
        # array kernels, bit-identical to the pure-Python reference.
        "perf": ["numpy>=1.24"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
