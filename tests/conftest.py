# Makes the tests directory importable so the shared mesh helpers in
# _meshes.py can be imported as a plain module from every test file.

from concurrent.futures import ThreadPoolExecutor

import pytest


@pytest.fixture
def lane():
    """The one-worker executor that ``solve_b`` and ``admm_inner`` take,
    as ``segment`` makes it; it is joined when the test ends."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield pool
