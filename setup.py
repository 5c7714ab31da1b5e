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
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
