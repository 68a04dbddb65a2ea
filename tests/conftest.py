import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

DATA = Path(__file__).parent.parent / "data"
sys.path.insert(0, str(DATA))  # make_fixtures, whose CSV writers the tests read back


@pytest.fixture(scope="session")
def toy_dir() -> Path:
    return DATA / "toy"


@pytest.fixture(scope="session")
def week_dir() -> Path:
    return DATA / "week"
