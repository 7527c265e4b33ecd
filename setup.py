from setuptools import find_packages, setup

setup(
    name="foss-repro",
    version="1.3.0",
    description=(
        "Reproduction of 'FOSS: A Self-Learned Doctor for Query Optimizer' "
        "(ICDE 2024) with a SQL-text-in / plan-out serving API (repro.api) "
        "and a socket-served remote engine (repro.engine.remote)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=[
        "numpy",
    ],
    entry_points={
        "console_scripts": [
            "repro-engine = repro.engine.remote.server:main",
        ],
    },
)
