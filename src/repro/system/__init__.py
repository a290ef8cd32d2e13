"""System-level orchestration of the OFL-W3 marketplace.

This package ties every substrate together into the workflow of the paper's
Section 3.2 (Steps 1-7) and drives the experiments of Section 4:

* :mod:`repro.system.config` -- experiment configuration (paper-scale and
  test-scale presets);
* :mod:`repro.system.timing` -- the latency model behind the execution-time
  breakdown (Fig. 7);
* :mod:`repro.system.roles` -- :class:`ModelBuyer` and :class:`ModelOwner`;
* :mod:`repro.system.workflow` -- the seven-step marketplace workflow;
* :mod:`repro.system.orchestrator` -- ``run_marketplace``: build everything,
  run the workflow, and return a consolidated experiment report;
* :mod:`repro.system.costs` -- gas/fee analysis (Fig. 5);
* :mod:`repro.system.stack` -- ``build_stack``: the one place the serving
  stack under all of the above is wired and closed.

The names below resolve on first use.  ``repro serve`` boots through
:mod:`repro.system.stack`, and importing the orchestrator beside it would load
``ml``, ``fl``, ``web``, numpy and scipy into every server process (+0.5 s to
boot and +57 MB resident on a 2-CPU x86 box, against 0.2 s and 28 MB without)
for routes it never mounts.
"""

from importlib import import_module

_HOME = {
    "OFLW3Config": "config", "paper_config": "config", "quick_config": "config",
    "GasCostReport": "costs", "build_gas_cost_report": "costs",
    "MarketplaceReport": "orchestrator", "build_environment": "orchestrator",
    "build_marketplace_report": "orchestrator",
    "default_task_spec": "orchestrator", "run_marketplace": "orchestrator",
    "ModelBuyer": "roles", "ModelOwner": "roles",
    "LatencyModel": "timing", "TimeBreakdown": "timing",
    "OFLW3Workflow": "workflow",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
