import json
import os
from pathlib import Path

import pytest

import typesemigroup as ts

MODELS = Path(__file__).resolve().parent.parent / "models"
SRC = MODELS.parent / "src"


@pytest.fixture(scope="session")
def models_dir() -> Path:
    return MODELS


@pytest.fixture(scope="session")
def cli_env() -> dict:
    """The environment for a CLI subprocess: this checkout's `src` first on
    PYTHONPATH, which pytest's own `pythonpath` setting does not pass on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def load_model(name: str) -> dict:
    with open(MODELS / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def two_loops() -> ts.KGraphModel:
    return ts.validate_kgraph(["v"], [[[2]]])


@pytest.fixture(scope="session")
def one_loop() -> ts.KGraphModel:
    return ts.validate_kgraph(["v"], [[[1]]])


@pytest.fixture(scope="session")
def cross_double() -> ts.KGraphModel:
    return ts.validate_kgraph(["u", "w"], [[[0, 2], [2, 0]]])


@pytest.fixture(scope="session")
def triangular() -> ts.KGraphModel:
    return ts.validate_kgraph(["u", "w"], [[[1, 1], [0, 1]]])


@pytest.fixture(scope="session")
def rank2_single_vertex() -> ts.KGraphModel:
    return ts.validate_kgraph(["v"], [[[2]], [[3]]])
