"""Unit tests for the shared sweep driver of repro.buffers.frontier."""

from fractions import Fraction

import pytest

from repro.buffers.distribution import StorageDistribution
from repro.buffers.frontier import Probe, adaptive_maximum, frontier_sweep
from repro.exceptions import BudgetExhausted

ORDER = ("x", "y")
TARGET = Fraction(5)


def dist(x: int, y: int) -> StorageDistribution:
    return StorageDistribution({"x": x, "y": y})


class Toy:
    """A capacity-monotone evaluator: ``min(x, 3) + min(y, 2)``.

    A channel below its saturation point "blocks" with deficit 1 (``y``
    with *y_step*); the probe log records the evaluation order.
    ``fail_at`` makes that probe (or its deficits) run out of budget.
    """

    def __init__(
        self, fail_at: int | None = None, fail_in_deficits: bool = False, y_step: int = 1
    ):
        self.y_step = y_step
        self.log: list[StorageDistribution] = []
        self.fail_at = fail_at
        self.fail_in_deficits = fail_in_deficits

    def __call__(self, distribution: StorageDistribution) -> Probe:
        if self.fail_at == len(self.log) and not self.fail_in_deficits:
            raise BudgetExhausted("out of probes", reason="probes")
        self.log.append(distribution)
        failing = self.fail_at == len(self.log) - 1 and self.fail_in_deficits

        def deficits() -> dict[str, int]:
            if failing:
                raise BudgetExhausted("out of probes", reason="probes")
            blocked = {"x": 1} if distribution["x"] < 3 else {}
            if distribution["y"] < 2:
                blocked["y"] = self.y_step
            return blocked

        value = Fraction(min(distribution["x"], 3) + min(distribution["y"], 2))
        return Probe(value, deficits)


def sweep(probe, **options):
    return frontier_sweep(dist(1, 1), probe, lambda value: value >= TARGET, ORDER, **options)


class TestFrontierSweep:
    def test_pops_in_size_then_vector_order_once_each(self):
        toy = Toy()
        result = sweep(toy)
        assert toy.log == [dist(1, 1), dist(1, 2), dist(2, 1), dist(2, 2), dist(3, 1), dist(3, 2)]
        assert list(result.evaluations) == toy.log
        # (2, 2) is pushed by both (1, 2) and (2, 1), yet probed once.
        assert len(set(toy.log)) == len(toy.log) == 6
        assert result.first_reaching_target == dist(3, 2)
        assert result.complete and result.pending == ()

    def test_ceiling_cuts_larger_sizes(self):
        result = frontier_sweep(
            dist(1, 1), Toy(), lambda value: value >= 3, ORDER
        )
        # Size 3 reaches 3 first; nothing above size 3 is explored.
        assert max(d.size for d in result.evaluations) == 3

    def test_stop_at_first(self):
        toy = Toy()
        result = frontier_sweep(
            dist(1, 1), toy, lambda value: value >= 3, ORDER, stop_at_first=True
        )
        assert result.first_reaching_target == dist(1, 2)
        assert toy.log[-1] == dist(1, 2)

    def test_max_size_and_token_sizes_cap_the_queue(self):
        assert max(d.size for d in sweep(Toy(), max_size=4).evaluations) == 4
        weighted = sweep(Toy(), max_size=6, token_sizes={"x": 2})
        assert all(2 * d["x"] + d["y"] <= 6 for d in weighted.evaluations)

    def test_known_distributions_are_never_probed(self):
        toy = Toy()
        result = sweep(toy, known={dist(1, 2): Fraction(3)})
        assert dist(1, 2) not in toy.log
        assert dist(1, 2) not in result.evaluations

    def test_on_ceiling_fires_once(self):
        calls = []
        sweep(Toy(), on_ceiling=lambda size, value: calls.append((size, value)))
        assert calls == [(5, TARGET)]

    def test_level_probe_matches_the_serial_sweep(self):
        serial = sweep(Toy(y_step=2))
        levels = []

        def probe_level(level):
            levels.append(list(level))
            return [Toy(y_step=2)(distribution) for distribution in level]

        batched = sweep(Toy(y_step=2), probe_level=probe_level)
        assert list(batched.evaluations.items()) == list(serial.evaluations.items())
        # Only size 4 holds two distributions.
        assert levels == [[dist(1, 3), dist(3, 1)]]

    def test_budget_keeps_the_interrupted_distribution_pending(self):
        result = sweep(Toy(fail_at=2))
        assert not result.complete and result.exhausted == "probes"
        assert list(result.evaluations) == [dist(1, 1), dist(1, 2)]
        # The interrupted distribution first, then the queue in order.
        assert result.pending == (dist(2, 1), dist(2, 2))

    def test_budget_in_deficits_keeps_the_value_and_drops_it_from_pending(self):
        result = sweep(Toy(fail_at=1, fail_in_deficits=True))
        assert list(result.evaluations) == [dist(1, 1), dist(1, 2)]
        assert result.pending == (dist(2, 1),)


class TestAdaptiveMaximum:
    @pytest.mark.parametrize("confirmations, probes", [(1, 5), (2, 6)])
    def test_doubles_until_stable(self, confirmations, probes):
        seen = []

        def evaluate(distribution):
            seen.append(distribution["x"])
            return Fraction(min(distribution["x"], 40))

        start = StorageDistribution({"x": 5})
        assert adaptive_maximum(evaluate, start, confirmations) == 40
        assert seen == [5, 10, 20, 40, 80, 160][:probes]
