"""Reference draws for the simulator tests, taken one value at a time.

Both ``test_simulate.py`` and ``test_simulate_reference.py`` import this
module by name; ``pythonpath`` in ``pyproject.toml`` puts this directory
on ``sys.path`` under any pytest import mode.
"""


def exponentials(rng):
    """Standard exponential draws of ``rng``, one at a time."""
    while True:
        yield from rng.standard_exponential(1024).tolist()


def per_draw_walk(rng, scales, seg_ends):
    """Reference arrival walk of one class: one candidate time per draw."""
    stream = exponentials(rng)
    arrivals, t = [], 0.0
    for k, (scale, end) in enumerate(zip(scales, seg_ends)):
        while scale is not None:
            candidate = t + next(stream) * scale
            if candidate >= end:  # discarded; the walk restarts at the end
                break
            arrivals.append((candidate, k))
            t = candidate
        t = end
    return arrivals
