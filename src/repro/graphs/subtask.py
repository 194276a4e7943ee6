"""Subtask model.

A *subtask* is the unit of work the TCM-style schedulers operate on.  Each
task of an application is described as a directed acyclic graph of subtasks
(see :class:`repro.graphs.taskgraph.TaskGraph`).  A subtask is mapped either
onto a DRHW tile (in which case executing it may first require loading its
configuration, i.e. a partial reconfiguration of the tile) or onto an
embedded instruction-set processor (ISP), which needs no reconfiguration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional


def is_finite_number(value: object) -> bool:
    """``True`` for a finite int or float; ``bool``, NaN and infinities are
    not numbers a graph may carry (``nan <= 0`` is False, ``True`` is 1)."""
    return not isinstance(value, bool) and math.isfinite(value)


class ResourceClass(str, Enum):
    """Kind of processing element a subtask is mapped onto.

    ``DRHW``
        A dynamically reconfigurable hardware tile.  Executing the subtask
        requires its configuration to be resident on the tile, which may in
        turn require a (costly) reconfiguration.
    ``ISP``
        An embedded instruction-set processor.  No reconfiguration is ever
        needed; the subtask only occupies the processor for its execution
        time.
    """

    DRHW = "drhw"
    ISP = "isp"


@dataclass(frozen=True)
class Subtask:
    """A single schedulable unit of work.

    Parameters
    ----------
    name:
        Unique identifier of the subtask within its graph.
    execution_time:
        Time (in milliseconds) the subtask occupies its processing element.
        Must be strictly positive.
    resource:
        Whether the subtask runs on a DRHW tile or on an ISP.
    configuration:
        Identifier of the configuration (bitstream) the subtask needs when
        running on DRHW.  Two subtasks with the same configuration can reuse
        each other's resident bitstream.  Defaults to ``name``.
    energy:
        Energy (in arbitrary units, typically mJ) consumed by one execution
        of the subtask.  Only used by the TCM Pareto bookkeeping.
    """

    name: str
    execution_time: float
    resource: ResourceClass = ResourceClass.DRHW
    configuration: Optional[str] = None
    energy: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("subtask name must be a non-empty string")
        if not is_finite_number(self.execution_time) or self.execution_time <= 0:
            raise ValueError(
                f"subtask {self.name!r} must have a finite positive execution "
                f"time, got {self.execution_time!r}"
            )
        if not is_finite_number(self.energy) or self.energy < 0:
            raise ValueError(
                f"subtask {self.name!r} must have finite non-negative energy, "
                f"got {self.energy!r}"
            )
        if self.configuration is None:
            object.__setattr__(self, "configuration", self.name)

    @property
    def is_reconfigurable(self) -> bool:
        """``True`` when the subtask runs on DRHW and thus may need a load."""
        return self.resource is ResourceClass.DRHW

    def with_execution_time(self, execution_time: float) -> "Subtask":
        """Return a copy of this subtask with a different execution time."""
        return replace(self, execution_time=execution_time)

    def with_configuration(self, configuration: str) -> "Subtask":
        """Return a copy of this subtask bound to a different configuration."""
        return replace(self, configuration=configuration)

    def scaled(self, factor: float) -> "Subtask":
        """Return a copy with the execution time scaled by ``factor``."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor!r}")
        return replace(self, execution_time=self.execution_time * factor)


def drhw_subtask(
    name: str,
    execution_time: float,
    configuration: Optional[str] = None,
    energy: float = 0.0,
) -> Subtask:
    """Convenience constructor for a DRHW-mapped subtask."""
    return Subtask(
        name=name,
        execution_time=execution_time,
        resource=ResourceClass.DRHW,
        configuration=configuration,
        energy=energy,
    )


def isp_subtask(name: str, execution_time: float, energy: float = 0.0) -> Subtask:
    """Convenience constructor for an ISP-mapped subtask."""
    return Subtask(
        name=name,
        execution_time=execution_time,
        resource=ResourceClass.ISP,
        energy=energy,
    )
