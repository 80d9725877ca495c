import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

#: Tiny graphs: ~2000 nodes instead of 100k, so a run takes seconds.
SCALE = 0.02


@pytest.fixture(scope="session")
def cache(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench-cache")
