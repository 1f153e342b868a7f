"""Shared test scaffolding.

StubRng scripts the backoff and error draws so MAC timing tests can pin
exact event times; build_cell wires a minimal one-BSS cell onto a fresh
scheduler without going through the scenario layer.
"""

import sys

import numpy as np

from wlansim import mac, metrics, traffic
from wlansim.agents import JOINT_ARM
from wlansim.engine import Scheduler
from wlansim.phy import SpectrumState, Transmission


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdict lines after capture ends."""
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "RESULTS", None):
            terminalreporter.ensure_newline()
            terminalreporter.section("acceptance criteria")
            for line in sorted(set(mod.RESULTS)):
                terminalreporter.write_line(line)
            break

MCS_TOP = {20: 11, 40: 11, 80: 11}


class StubRng:
    """Deterministic stand-in for the backoff / error streams.

    integers() hands out the scripted draws, then the fill value; random(n)
    returns a constant, so per-MPDU loss is all-or-nothing via bss.per.
    """

    def __init__(self, draws=(), fill=0, uniform=0.5):
        self.draws = list(draws)
        self.fill = fill
        self.uniform = uniform

    def integers(self, low, high):
        return self.draws.pop(0) if self.draws else self.fill

    def random(self, n):
        return np.full(n, self.uniform)


class AgentStub:
    """Plays one fixed action's arm every cycle and logs the rewards it is
    paid."""

    needs_context = True

    def __init__(self, action):
        self.arm = JOINT_ARM[action]
        self.begun = 0
        self.rewards = []
        self.sensor_log = []

    def begin_cycle(self, sensors):
        self.begun += 1
        self.sensor_log.append(sensors)
        return self.arm

    def complete_cycle(self, reward):
        self.rewards.append(reward)


class ListenerRecorder:
    """Spectrum subscriber that just logs its busy/idle edges."""

    def __init__(self):
        self.events = []

    def primary_busy(self, channel, t):
        self.events.append(("busy", channel, t))

    def primary_idle(self, channel, t):
        self.events.append(("idle", channel, t))


def build_cell(channels=(1,), primary=1, bonding=mac.SCB, per=0.0,
               agent=None, draws=(), fill=0, bss_id=1, sim=None,
               spectrum=None, trace=None):
    """One AP-STA pair on its own (or a shared) spectrum, fed by a source
    that offers nothing; tests push packets themselves.

    Returns (sim, spectrum, bss); metrics hang off bss.metrics, and
    bss.cycle_log holds (outcome, start, end) of every finished cycle.
    """
    if sim is None:
        sim = Scheduler(trace=trace)
    if spectrum is None:
        spectrum = SpectrumState()
    bss = mac.Bss(bss_id, sim, spectrum, metrics.BssMetrics(bss_id),
                  rng_backoff=StubRng(draws, fill), rng_per=StubRng(),
                  mcs_by_width=dict(MCS_TOP), bonding=bonding,
                  channels=tuple(channels), primary=primary, agent=agent,
                  per=per)
    bss.traffic = traffic._Source()
    bss.cycle_log = []
    finish = bss._finish_cycle

    def logged_finish(outcome, *args):
        bss.cycle_log.append((outcome, bss.cycle_start, sim.now()))
        finish(outcome, *args)

    bss._finish_cycle = logged_finish
    return sim, spectrum, bss


def foreign_frame(sim, spectrum, channels, start, end, bss_id=99):
    """Put a foreign transmission on the air over [start, end].

    end=None leaves it on forever.  Returns the Transmission.
    """
    tx = Transmission(bss_id, tuple(channels), start,
                      end if end is not None else 1 << 62)
    if start <= sim.now():
        spectrum.add(tx, start)
    else:
        sim.schedule(start, "channel", "foreign", spectrum.add, tx, start)
    if end is not None:
        sim.schedule(end, "channel", "foreign", spectrum.remove, tx, end)
    return tx


def offer_packets(bss, count, now=0):
    bss.on_arrival(bss.make_packets(np.full(count, now)))
