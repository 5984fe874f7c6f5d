"""Session set-up for every test under this directory (tests/ and perfbench/).

numpy's OpenBLAS starts one worker thread per CPU. The SAC nets multiply
256-wide matrices, which gain little from a second thread, and when the
CPUs are shared with other processes the spinning workers make every
matmul several times slower: one `SacAgent.update` (batch 256) took
41 ms with one thread and 128 ms with two on a 2-vCPU VM running two
other numpy processes, and 38 ms against 34 ms with the VM idle. The
results are bit-identical either way. This runs before numpy is first
imported; an OPENBLAS_NUM_THREADS already set in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def pytest_collection_modifyitems(config, items):
    """Run the tests marked slow (the SAC training criteria) last.

    They take nearly all of the suite's wall time, so every fast result
    is reported before the long training runs start. The sort is stable:
    each group keeps its collection order.
    """
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)
