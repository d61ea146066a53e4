"""Run controller for long explorations.

The paper's design-space exploration is exponential in the worst case;
this package makes long runs *operable*:

* :mod:`repro.runtime.config` — :class:`ExplorationConfig`, the single
  frozen knob object accepted (as ``config=``) by every exploration
  entry point;
* :mod:`repro.runtime.budget` — wall-clock / probe budgets and
  cooperative cancellation;
* :mod:`repro.runtime.controller` — budget enforcement at probe
  granularity (results stay exact under interruption);
* :mod:`repro.runtime.checkpoint` — JSON checkpoints and the
  deterministic-replay resume guarantee;
* :mod:`repro.runtime.telemetry` — structured events, counters and
  timers behind the CLI's ``--stats-json``.

See ``docs/RUNTIME.md`` for the operator's guide.
"""

from repro.exceptions import BudgetExhausted, CheckpointError
from repro.runtime.budget import Budget, CancelToken
from repro.runtime.checkpoint import (
    ResumeToken,
    build_token,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.config import ExplorationConfig
from repro.runtime.controller import RunController
from repro.runtime.telemetry import TelemetryEvent, TelemetryHub

__all__ = [
    "Budget",
    "BudgetExhausted",
    "CancelToken",
    "CheckpointError",
    "ExplorationConfig",
    "ResumeToken",
    "RunController",
    "TelemetryEvent",
    "TelemetryHub",
    "build_token",
    "load_checkpoint",
    "save_checkpoint",
]
