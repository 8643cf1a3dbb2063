import pathlib

import pytest

from parmaint.model import load_instance

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def base_instance():
    return load_instance(ROOT / "instances" / "base-6-20.json")


@pytest.fixture(scope="session")
def instances_dir():
    return ROOT / "instances"


@pytest.fixture(scope="session")
def large_instance():
    """Three-type instance of the benchmark's large design."""
    return load_instance(ROOT / "perfbench" / "data" / "large-3.json")
