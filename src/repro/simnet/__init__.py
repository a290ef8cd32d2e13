"""``repro.simnet``: a discrete-event marketplace simulator.

The seed reproduction runs one happy-path marketplace: one buyer, N honest
owners, a zero-latency fully-meshed IPFS swarm and a single FL task.  This
subsystem turns that demo into a load/fault laboratory:

* :mod:`repro.simnet.events` -- a deterministic event scheduler layered on
  :class:`~repro.utils.clock.SimulatedClock`, with generator-based processes
  that wait by *yielding* instead of advancing the clock in lock step;
* :mod:`repro.simnet.netmodel` / :mod:`repro.simnet.profiles` -- per-link
  latency/bandwidth/jitter/drop network models with partition and heal,
  pluggable into the IPFS :class:`~repro.ipfs.swarm.Swarm` and the chain
  node's transaction ingress;
* :mod:`repro.simnet.behaviors` -- a library of owner archetypes (honest,
  straggler, dropout/churner, free-rider, label-flipping poisoner) pluggable
  into :class:`~repro.system.roles.ModelOwner`;
* :mod:`repro.simnet.scenario` / :mod:`repro.simnet.runner` -- named
  scenarios ("ideal", "adversarial", "concurrent", "lossy", "churn",
  "stress") executed as many concurrent OFL-W3 tasks against one shared
  chain node and mempool;
* :mod:`repro.simnet.report` -- the per-scenario report (task throughput,
  mempool depth over time, gas spent, accuracy vs adversary fraction).

Under the default "ideal" scenario (one task, all honest, no network model)
the runner reproduces the seed's Fig. 4-7 numbers exactly.

The names below resolve on first use, as in :mod:`repro.system`: the parser
of every ``repro`` command reads ``SCENARIOS`` and ``NETWORK_PROFILES``, and
loading the runner and behaviors beside them would pull ``fl`` / ``ml`` /
scipy and the orchestrator into ``repro serve`` and every other command that
never simulates.
"""

from importlib import import_module

_HOME = {
    "BEHAVIOR_ARCHETYPES": "behaviors", "DropoutBehavior": "behaviors",
    "FreeRiderBehavior": "behaviors", "HonestBehavior": "behaviors",
    "LabelFlipPoisonerBehavior": "behaviors", "OwnerBehavior": "behaviors",
    "StragglerBehavior": "behaviors", "assign_behaviors": "behaviors",
    "make_behavior": "behaviors",
    "EventScheduler": "events", "ScheduledEvent": "events",
    "SimProcess": "events",
    "LinkProfile": "netmodel", "NetworkModel": "netmodel",
    "NETWORK_PROFILES": "profiles", "make_network": "profiles",
    "ScenarioReport": "report", "TaskOutcome": "report",
    "ScenarioRunner": "runner", "run_scenario": "runner",
    "SCENARIOS": "scenario", "ScenarioSpec": "scenario",
    "build_scenario": "scenario",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
