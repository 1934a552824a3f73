"""Multiprogramming subsystem: preemptive scheduling, real fork/wait,
kernel pipes, and per-process authentication-state isolation."""

from repro.kernel.sched.blocking import ImageReplaced, ProcessBlocked, WouldBlock
from repro.kernel.sched.pipe import PIPE_CAPACITY, BrokenPipe, Pipe
from repro.kernel.sched.scheduler import (
    MultiRunResult,
    Scheduler,
    Task,
    TaskState,
)

__all__ = [
    "BrokenPipe",
    "ImageReplaced",
    "MultiRunResult",
    "PIPE_CAPACITY",
    "Pipe",
    "ProcessBlocked",
    "Scheduler",
    "Task",
    "TaskState",
    "WouldBlock",
]
