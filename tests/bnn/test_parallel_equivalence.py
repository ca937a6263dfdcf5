"""Engine-independent accounting, swept across every registered engine.

Engines are interchangeable side by side: whichever one the session
selects, a batch must report the oracle's predictions, timing and
``bnn.*`` counters.  The sweep auto-discovers engines from the registry,
so an engine added later joins it by construction.
"""

import numpy as np

from repro.bnn import BNNAccelerator, BNNModel, binarize_sign
from repro.engine import engine_names
from repro.scenario import Scenario
from repro.sim import use_session


def make_model(sizes=(60, 40, 10), seed=0):
    return BNNModel.random(list(sizes), np.random.default_rng(seed))


def make_inputs(model, n, seed=1):
    rng = np.random.default_rng(seed)
    return binarize_sign(rng.standard_normal((n, model.input_size)))


class TestEngineAccounting:
    """Session counters and timing must not depend on the engine."""

    def _run(self, engine):
        model = make_model()
        x = make_inputs(model, 12)
        with use_session(cache_enabled=False,
                         scenario=Scenario().with_engine(name=engine)) as session:
            predictions, timing = BNNAccelerator().infer_batch(model, x)
            counters = session.stats
        return list(predictions), timing.total_cycles, counters

    def test_every_registered_engine_accounting_identical(self):
        """Auto-discovered (accurate/fast today): timing, predictions and
        ``bnn.*`` counters must be identical under every registered
        engine, including any added later."""
        names = engine_names()
        assert {"accurate", "fast"} <= set(names)
        oracle = self._run("accurate")
        for name in names:
            assert self._run(name) == oracle, name
