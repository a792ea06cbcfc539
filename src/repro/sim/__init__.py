"""Discrete-event simulation kernel (substrate S1).

This package is a small, self-contained DES engine: a two-tier event
queue (a binary heap for events due within half a second, unsorted
half-second buckets for later ones) with stable FIFO ordering for ties,
a simulator clock, cancellable events whose handle is the plain heap
entry ``[time, priority, seq, fn, args]``, periodic processes, named
deterministic random streams, and a set of service-time distribution
samplers.

Everything above it in the library (hardware, hypervisor, RUBiS tiers,
monitoring) is driven by this engine.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.random import RandomStreams
from repro.sim.distributions import (
    Constant,
    Deterministic,
    Distribution,
    Empirical,
    Erlang,
    Exponential,
    LogNormal,
    Mixture,
    ParetoBounded,
    TruncatedNormal,
    Uniform,
    distribution_from_spec,
)

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "PeriodicProcess",
    "RandomStreams",
    "Constant",
    "Deterministic",
    "Distribution",
    "Empirical",
    "Erlang",
    "Exponential",
    "LogNormal",
    "Mixture",
    "ParetoBounded",
    "TruncatedNormal",
    "Uniform",
    "distribution_from_spec",
]
