import json
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


@pytest.fixture(scope="session")
def million_path(tmp_path_factory):
    """One type with a million copies allowed: 1,000,001 designs."""
    doc = {
        "components": [
            {"label": "a", "p": 0.9, "tau": 1, "usage_cost": 1, "repair_cost": 10,
             "install_cost": 1, "weight": 1}
        ],
        "constraints": [{"name": "slots", "coefficients": [1], "bound": 1e6}],
    }
    path = tmp_path_factory.mktemp("inst") / "big.json"
    path.write_text(json.dumps(doc))
    return str(path)
