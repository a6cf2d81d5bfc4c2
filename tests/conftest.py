"""Marks the acceptance gates that train real models as ``slow``.

``python -m pytest -m "not slow"`` leaves them out for a quick loop; a
plain ``python -m pytest`` still runs everything.  The report header
names the BLAS thread settings and core count, which move the gates'
numbers.
"""

import os

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


def pytest_report_header(config):
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}" for name in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return f"threads: {threads}; os.cpu_count()={os.cpu_count()}"
