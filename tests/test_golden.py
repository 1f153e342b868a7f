"""Golden digests: byte-identical trial output for short pinned runs.

Every scenario x method runs one 1 s trial with the decision log on.  sp1,
sp2 and mp1 cover full-buffer learning APs; mp2 and mp3 add learning APs fed
by VR, bursty and Poisson arrivals (seed 1, trial 0), and mp3 adds 80 MHz
legacy APs.  Three more cases cover arrival-driven legacy APs: sp2 with
every legacy AP pinned to Poisson under DCB bonding (the benchmark's
sp2-static-dcb workload), and tuning-deployment seeds 3 and 5, whose legacy
APs include a Poisson (0.43 load) and a bursty (0.32 load) source light
enough to drain their queues and go idle again and again.  The burn-in is
cut to 0.2 s, so the goodput, delay and selection windows are not empty,
and sp2's load intervals to 0.25 s, so all four of them play out.
A change that means to alter trial output updates these digests and says
why; a refactor leaves them as they are.  Three cases also pin the event
trace, one line per executed event: a cut that only drops events that
would have been cancelled leaves it as it is.  Among the arrivals, a trace
lists only those to an idle AP, whatever the source, so the mp3 trace has
no VR arrival to a busy AP.
"""

import hashlib
import io
from dataclasses import replace

import pytest

from wlansim import scenarios
from wlansim.runner import RunParams, _dump_records, run_trial

METHODS = {
    "ucb-sa": dict(algo="ucb", arch="sa"),
    "ucb-ma": dict(algo="ucb", arch="ma"),
    "linucb-sa": dict(algo="linucb", arch="sa"),
    "linucb-ma": dict(algo="linucb", arch="ma"),
    "static-ch7": dict(algo="none", static_channel=7),
    "static-ch7-dcb": dict(algo="none", static_channel=7, bonding="dcb"),
}

GOLDEN = {
    ("sp1", "ucb-sa"): "2e0db3645220c27a5f1aba25605309c1140117c267f1c7cdfe9917c58fba97f0",
    ("sp1", "ucb-ma"): "b0ba74f23fb26dc9d381d74d35c6c357ef285627eb1a25a08da949b8593e9b59",
    ("sp1", "linucb-sa"): "11d8ac51b3e952d75fbd807aaf5c9e9fc3c93a5f5749fb08d68a06f65b011475",
    ("sp1", "linucb-ma"): "0d285312f1ea4e03375b162f71b5845696c5088ed1748084a32ca57359d21492",
    ("sp1", "static-ch7"): "28864815c804530f8eb52b040403cd3fc9a1e6dcdcf7c58bd5c0d3109bb45696",
    ("sp2", "ucb-sa"): "bdf4d1ecbed51c83da4c2ae2f71d57e8980e3550fad3b014e5b56917f5b436d1",
    ("sp2", "ucb-ma"): "aaace0a625d4ee24ac24d24419662308fdadca7bb2a27419ecfb456d75366ec4",
    ("sp2", "linucb-sa"): "32ce05f4c56a31b7623c7b48de5c36ffdd50b22d4545f19a3178df4d1778bd61",
    ("sp2", "linucb-ma"): "d305d9f68ba6efa1c9606b0a776c86d278e1e40677f874dbd476aebb7530d2dd",
    ("sp2", "static-ch7"): "8b6d1cc62c3d8dff3d60048e9f20166291fc67fcbfe8941074a3c4f2cb4ad027",
    ("mp1", "ucb-sa"): "25d20c37b1cf36182f6c3ba31ec43948396e032c8cdb76ffb72c8781917b426b",
    ("mp1", "ucb-ma"): "5ef42c81607a4a967f71eaa45887338f1f63ba1ae6609e2e7ba42e4ee4d6ea34",
    ("mp1", "linucb-sa"): "82d828f3fa53601830877eba6e75cb50da4dbc61b81553107432f2027a90a83e",
    ("mp1", "linucb-ma"): "134a087852fadf238fbb4f7abc1c5963501922c84a7f6e47635cda98254b4570",
    ("mp1", "static-ch7"): "ec3194d9a428606f88dfe18a012fa0765abce07c13aad97ebcad808689ae6078",
    ("mp2", "ucb-sa"): "1ac923c15b114e0d01b5141e6e1d7e153eca8b9c9f74d731f04584e2aaecf649",
    ("mp2", "ucb-ma"): "beaa0cd0beada2a2ec82431ae4cc425bd72c97ed821b402a87529bd7a4c8cc1a",
    ("mp2", "linucb-sa"): "47a8122ac18b3f63113ab6a9ac953c94673adec5cdcd085c53fcc8c0a9f9a287",
    ("mp2", "linucb-ma"): "5dbaf6879d57f621e0a9958e649b3e30b5169fc006832ed5c232c0a36b20e97b",
    ("mp2", "static-ch7"): "10746f968ed5a7379b62ebd3e546f4de9b58ba1e8e7f5babc298c0cb2e13fb21",
    ("mp3", "ucb-sa"): "7afc553e4c7418904006175ae04aa8eb23e7c5681469d3ceb04486a83798b6e5",
    ("mp3", "ucb-ma"): "0f9dbbf89395e7817519ef7c36a0cfa10308575e1cbaf85b7587bc84a749f0be",
    ("mp3", "linucb-sa"): "ac359ad6436693194981eebe65cf3a6963f576f2d3dfb9c84035152dca79bcb4",
    ("mp3", "linucb-ma"): "f855ef5c887c705c68c9ff9afbc7c7508af16b566276b205e66444af5a2c67d4",
    ("mp3", "static-ch7"): "7aad4fd08f469a41a532f8892d92dabc4e92a30922172ba840ed9814acb8f7ee",
    ("sp2-poisson", "static-ch7-dcb"): "248e0f6dc821ed477e3eb9ea08009b5d617faf28293c2495a202f4dfa739fa83",
    ("tuning-deployment@3", "ucb-sa"): "b29fab707f2a77626421d5e48f766380226775d2a4b7628e6bbe8477b82adca5",
    ("tuning-deployment@5", "linucb-ma"): "44aabf72717a3eb3ce2ad4c25660d779022f3e15c07aaf46592492194c0d1f76",
}

TRACE_GOLDEN = {
    ("mp1", "linucb-ma"): "6a3bcbf57a0b533e90062aaa2d04e279ab87677ad102b159e01b170182c44fdf",
    ("mp3", "ucb-sa"): "27840e0be821de4dde202fc8fa3e1eb982134a0b44ee7eef2fc28368d7c60201",
    ("sp2-poisson", "static-ch7-dcb"): "9920e29ad470209666a4e029aa16a1e864839ca745cba6c5be5d64427f05b102",
}


def _spec(scenario):
    """A catalog scenario at seed 1; "name@seed" picks another seed, and
    "sp2-poisson" pins every sp2 legacy AP to Poisson arrivals."""
    name, _, seed = scenario.partition("@")
    poisson = name == "sp2-poisson"
    spec = scenarios.build_scenario("sp2" if poisson else name,
                                    int(seed or 1))
    if poisson:
        for b in spec.bss:
            if b.role == scenarios.LEGACY:
                b.traffic = replace(b.traffic, kind="poisson")
    return spec


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(scenario, method, trace_file=None):
    spec = _spec(scenario)
    spec = replace(spec, duration_s=1.0, burn_in_s=0.2,
                   interval_s=0.25 if spec.interval_s else None)
    params = RunParams(duration_s=1.0, decision_log=True, **METHODS[method])
    return _sha256(_dump_records(run_trial(spec, params, 0, trace_file)))


@pytest.mark.parametrize("scenario,method", sorted(GOLDEN))
def test_golden_digest(scenario, method):
    assert _digest(scenario, method) == GOLDEN[(scenario, method)]


@pytest.mark.parametrize("scenario,method", sorted(TRACE_GOLDEN))
def test_golden_event_trace(scenario, method):
    trace = io.StringIO()
    assert _digest(scenario, method, trace) == GOLDEN[(scenario, method)]
    assert _sha256(trace.getvalue()) == TRACE_GOLDEN[(scenario, method)]
