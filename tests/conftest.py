import json
import pathlib

import numpy as np
import pytest
import scipy

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def recorded_versions_differ() -> str:
    """Why byte digests recorded with perfbench/baseline.json's numpy and
    scipy may not hold here ('' when both versions match)."""
    with open(ROOT / "perfbench" / "baseline.json", encoding="utf-8") as fh:
        recorded = json.load(fh)["environment"]
    found = {"numpy": np.__version__, "scipy": scipy.__version__}
    return "; ".join(f"{lib} {found[lib]} here, digests recorded with {recorded[lib]}"
                     for lib in found if found[lib] != recorded[lib])
