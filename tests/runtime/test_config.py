"""ExplorationConfig: validation, the one backend selector, re-exports."""

import dataclasses
import warnings
from fractions import Fraction

import pytest

from repro.buffers.dependencies import dependency_sweep, find_minimal_distribution
from repro.buffers.evalcache import EvaluationService
from repro.buffers.explorer import explore_design_space, minimal_distribution_for_throughput
from repro.exceptions import ExplorationError
from repro.gallery.registry import gallery_graph
from repro.runtime import Budget, ExplorationConfig


class TestValidation:
    def test_defaults(self):
        config = ExplorationConfig()
        assert config.backend == "auto"
        assert config.workers == 1
        assert config.cache is True
        assert config.budget is None

    def test_backend_is_the_only_selector(self):
        assert "engine" not in {f.name for f in dataclasses.fields(ExplorationConfig)}
        with pytest.raises(TypeError, match="engine"):
            ExplorationConfig(engine="reference")

    def test_workers_must_be_positive(self):
        with pytest.raises(ExplorationError):
            ExplorationConfig(workers=0)

    def test_probe_timeout_must_be_positive(self):
        with pytest.raises(ExplorationError):
            ExplorationConfig(probe_timeout=0)

    def test_evaluator_excludes_other_run_knobs(self):
        graph = gallery_graph("example")
        with EvaluationService(graph, "c") as service:
            ExplorationConfig(evaluator=service)  # fine on its own
            with pytest.raises(ExplorationError, match="workers"):
                ExplorationConfig(evaluator=service, workers=2)
            with pytest.raises(ExplorationError, match="budget"):
                ExplorationConfig(evaluator=service, budget=Budget(max_probes=1))

    def test_unknown_backend_raises_config_error_at_construction(self):
        from repro.exceptions import ConfigError

        # "batch-numpy" names a backend that no longer exists.
        for name in ("warp", "batch-numpy", "tiered"):
            with pytest.raises(ConfigError, match=f"unknown probe backend '{name}'"):
                ExplorationConfig(backend=name)
            # ConfigError is an ExplorationError: one catch covers both.
            with pytest.raises(ExplorationError):
                ExplorationConfig(backend=name)

    def test_error_lists_registered_backends(self):
        from repro.exceptions import ConfigError

        for name in ("warp", "batch-numpy", "tiered"):
            with pytest.raises(ConfigError, match="registered backends: cc, fastcore, reference$"):
                ExplorationConfig(backend=name)

    def test_valid_backends_accepted(self):
        ExplorationConfig(backend="reference")
        ExplorationConfig(backend="fastcore")
        ExplorationConfig(backend="auto")

    def test_evaluator_excludes_backend(self):
        graph = gallery_graph("example")
        with EvaluationService(graph, "c") as service:
            with pytest.raises(ExplorationError, match="backend"):
                ExplorationConfig(evaluator=service, backend="fastcore")

    def test_replaced_returns_modified_copy(self):
        config = ExplorationConfig(workers=2)
        other = config.replaced(workers=4)
        assert config.workers == 2 and other.workers == 4
        assert other.backend == config.backend

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExplorationConfig().workers = 3


class TestEntryPointShims:
    """Every public entry point accepts config=; the removed per-call
    keywords have no shim left, so they fail with Python's TypeError."""

    def test_explore_design_space(self):
        graph = gallery_graph("example")
        with pytest.raises(TypeError, match="workers"):
            explore_design_space(graph, "c", workers=1)

    def test_explore_design_space_config_form(self):
        graph = gallery_graph("example")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = explore_design_space(graph, "c", config=ExplorationConfig())
        assert [p.size for p in result.front] == [6, 8, 9, 10]

    def test_minimal_distribution_for_throughput(self):
        graph = gallery_graph("example")
        with pytest.raises(TypeError, match="engine"):
            minimal_distribution_for_throughput(graph, Fraction(1, 6), "c", engine="auto")

    def test_dependency_sweep(self):
        graph = gallery_graph("example")
        with pytest.raises(TypeError, match="engine"):
            dependency_sweep(graph, "c", stop_throughput=Fraction(1, 4), engine="reference")

    def test_find_minimal_distribution(self):
        graph = gallery_graph("example")
        with pytest.raises(TypeError, match="engine"):
            find_minimal_distribution(graph, Fraction(1, 6), "c", engine="auto")

    def test_evaluation_service(self):
        graph = gallery_graph("example")
        with pytest.raises(TypeError, match="workers"):
            EvaluationService(graph, "c", workers=1, cache=True)

    def test_mixing_raises_at_entry_point(self):
        graph = gallery_graph("example")
        with pytest.raises(TypeError, match="workers"):
            explore_design_space(graph, "c", config=ExplorationConfig(), workers=2)

    def test_config_only_call_emits_no_deprecation(self):
        graph = gallery_graph("example")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            EvaluationService(graph, "c", config=ExplorationConfig()).close()
            dependency_sweep(
                graph, "c", stop_throughput=Fraction(1, 4), config=ExplorationConfig()
            )


class TestTopLevelExports:
    def test_runtime_api_reexported_from_repro(self):
        import repro

        for name in (
            "ExplorationConfig",
            "Budget",
            "CancelToken",
            "BudgetExhausted",
            "CheckpointError",
            "ResumeToken",
            "TelemetryEvent",
            "load_checkpoint",
            "save_checkpoint",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__
