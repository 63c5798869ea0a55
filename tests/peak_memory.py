"""The one tracemalloc helper for the memory guards."""

import tracemalloc


def traced_peak(call) -> int:
    """The peak traced memory, in bytes, while call() runs; tracing always stops."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
