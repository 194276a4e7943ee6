"""Experiment drivers: every table and figure of the evaluation.

* :mod:`~repro.experiments.artifacts` declares each sweep-backed artifact
  once (Figures 6 and 7, the latency sweep, the energy and robustness
  studies, the inter-task and replacement ablations) and runs any of them
  through :func:`~repro.experiments.artifacts.run_artifact`;
* :mod:`~repro.experiments.table1`, :mod:`~repro.experiments.hide_rate`,
  :mod:`~repro.experiments.scalability` and
  :mod:`~repro.experiments.ablation` (pick metric, design-time engine)
  are per-graph studies with a module each;
* :mod:`~repro.experiments.robustness` holds the noise knob, and
  :mod:`~repro.experiments.common` the shared table renderer and series.

The package imports none of them itself, so reaching one (the daemon
needs only ``robustness.noise_profile``) loads only what that one needs.
"""
