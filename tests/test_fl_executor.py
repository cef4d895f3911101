"""Round executor: results come back in item order, failures propagate."""

import pytest

from repro.fl import SequentialRoundExecutor


class TestExecutorBehaviour:
    def test_map_preserves_order(self):
        with SequentialRoundExecutor() as executor:
            result = executor.map(lambda i: i * i, list(range(20)))
        assert result == [i * i for i in range(20)]

    def test_map_propagates_exceptions(self):
        def boom(i):
            if i == 3:
                raise RuntimeError("client failed")
            return i

        with SequentialRoundExecutor() as executor:
            with pytest.raises(RuntimeError, match="client failed"):
                executor.map(boom, list(range(5)))
