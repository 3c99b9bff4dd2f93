"""Peak traced allocation of one call, shared across test modules."""

import tracemalloc


def traced_peak(run, prepare=lambda: None):
    """``(run(prepare()), peak)``: the most bytes ``run`` held at once beyond what was live when it began.

    ``prepare`` runs first under the same trace, so the arrays it makes are
    traced and ``run`` is credited when it frees them (a train step replaces
    the parameters and gradients that earlier steps made).  Only
    ``run``'s allocations count toward the peak.
    """
    tracemalloc.start()
    try:
        ready = prepare()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = run(ready)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
