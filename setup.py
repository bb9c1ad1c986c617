"""Setuptools packaging for the Cocktail (DAC 2021) reproduction."""

from setuptools import find_packages, setup

setup(
    name="cocktail-repro",
    version="0.1.0",
    description=(
        "NumPy reproduction of 'Cocktail: Learn a Better Neural Network "
        "Controller from Multiple Experts via Adaptive Mixing and Robust "
        "Distillation' (DAC 2021)"
    ),
    long_description=(
        "Adaptive mixing of expert controllers via PPO, robust distillation "
        "into a small verifiable student network, batched Monte-Carlo "
        "evaluation, and Bernstein-polynomial verification -- all on NumPy."
    ),
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=["numpy>=1.22"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis", "scipy"]},
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
    classifiers=[
        "Programming Language :: Python :: 3",
        "Intended Audience :: Science/Research",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
)
