"""Marks the acceptance gates that train real models as ``slow``.

``python -m pytest -m "not slow"`` leaves them out for a quick loop; a
plain ``python -m pytest`` still runs everything.
"""

import pytest

SLOW = {
    "test_acceptance.py::test_07_supervised_reproduction",
    "test_acceptance.py::test_08_pretrained_features_beat_raw",
    "test_acceptance.py::test_09_semi_supervised_alternation",
}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.split("/")[-1] in SLOW:
            item.add_marker(pytest.mark.slow)
