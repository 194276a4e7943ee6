"""Robustness under run-time noise: the intensity knob and its defaults.

The paper's Figure 6/7 numbers assume the run-time phase replays its plans
under perfect knowledge.  The robustness study measures what happens when
it does not: one *noise intensity* is scaled into a full
:class:`~repro.sim.noise.PerturbationConfig` (latency noise, execution
misestimation, mid-flight load failures), and every approach is swept
over ``intensity x seeds``.  The sweep is the
:data:`~repro.experiments.artifacts.ROBUSTNESS` declaration; each
(approach, level) row reports the mean overhead with a 95 % Student-t
interval, plus the failed load attempts, abandoned prefetches and
fault-attributable reloads the noise caused.

Intensity 0 is by construction the noise-free simulator (the
``perturbations`` axis normalizes it to ``None``), so the leftmost point
of every curve is bit-identical to the corresponding deterministic run.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import ConfigurationError
from ..sim.noise import PerturbationConfig

#: Noise intensities swept by default: off, mild, moderate, harsh.
DEFAULT_NOISE_LEVELS: Tuple[float, ...] = (0.0, 0.15, 0.3, 0.5)

#: Approaches compared by default: the static design-time plan, the two
#: strongest deterministic heuristics, and the feedback-controlled one.
DEFAULT_APPROACHES: Tuple[str, ...] = (
    "design-time", "run-time+inter-task", "hybrid", "adaptive",
)

#: Seeds of the default ensemble (5 per cell, as the robustness gate asks).
DEFAULT_SEEDS: Tuple[int, ...] = (2005, 2006, 2007, 2008, 2009)


def noise_profile(intensity: float) -> Optional[PerturbationConfig]:
    """Scale one intensity knob into a full perturbation config.

    Intensity 0 returns ``None`` (the noise-free simulator); intensity 1
    is a deliberately harsh regime: lognormal latency noise with
    sigma 0.25, up to one extra latency unit of jitter, 20 % execution
    misestimation and a 25 % per-attempt load failure rate.
    """
    if intensity < 0.0:
        raise ConfigurationError(
            f"noise intensity must be non-negative, got {intensity!r}"
        )
    if intensity == 0.0:
        return None
    return PerturbationConfig(
        latency_sigma=0.25 * intensity,
        latency_jitter=1.0 * intensity,
        execution_sigma=0.2 * intensity,
        load_failure_rate=min(0.9, 0.25 * intensity),
    )
