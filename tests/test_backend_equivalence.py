"""Object-vs-array kernel equivalence: the bit-identity contract.

The array backend (:mod:`repro.noc.array_sim`) is a pure performance
refactor — structure-of-arrays state plus a gated-epoch span fast path —
and its contract is **exact** equality with the object kernel, not
approximate agreement (see ``docs/backends.md``).  Four layers enforce
it here:

1. every committed golden fingerprint, re-run with ``backend="object"``
   (the golden suite itself runs the default ``array`` kernel, so the
   two layers together pin both kernels to the same committed bytes),
2. the fuzzer's deterministic trial generator (a fixed slice of the same
   schedule the ``--differential-backend`` CLI leg samples),
3. hypothesis-driven random small configs, where the *shape* of the
   config (topology, flit sizes, buffer depth, epoch length, switching)
   is the fuzzed surface,
4. a neighbour-reading (full-41) training capture on the array kernel,
   against the object kernel's, which runs one cycle at a time.

Divergence in any summary field is a bug in the array kernel by
definition — the object kernel is the reference semantics.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SimConfig
from repro.core.controller import make_policy
from repro.core.features import FULL_FEATURES
from repro.experiments.runner import MODEL_NAMES, ModelMetrics
from repro.noc.array_sim import ArraySimulator
from repro.noc.simulator import Simulator, run_simulation
from repro.noc.topology import NUM_PORTS
from repro.traffic.benchmarks import generate_benchmark_trace
from repro.validate.fuzz import build_trial

sys.path.insert(0, str(Path(__file__).resolve().parent))
from regen_golden import compute_fingerprint, golden_cases, golden_path  # noqa: E402


# --------------------------------------------------------------------- #
# Layer 1: the committed golden matrix, re-run on the object kernel
# --------------------------------------------------------------------- #

_CASES = golden_cases()


@pytest.mark.parametrize(
    "case", _CASES, ids=[c["id"] for c in _CASES]
)
def test_object_backend_matches_committed_golden(case):
    """Object-kernel fingerprints equal the committed (array) ones.

    The golden suite recomputes every case on the default ``array``
    kernel; this mirror recomputes it on the reference ``object`` kernel.
    Every simulation-observable part of the fingerprint must match the
    JSON on disk exactly; only the echoed config (which records the
    backend) may differ.
    """
    committed = json.loads(golden_path(case["id"]).read_text())
    arr_case = dict(case, config=dict(case["config"], backend="object"))
    got = compute_fingerprint(arr_case)
    assert got["drained"] == committed["drained"]
    assert got["summary"] == committed["summary"]


# --------------------------------------------------------------------- #
# Layer 2: fuzzer trials (same generator as --differential-backend)
# --------------------------------------------------------------------- #

def _run_both(config, trace, policy_name, weights=None):
    policy_obj = make_policy(policy_name, weights=weights)
    ref = Simulator(config, trace, policy_obj).run()
    policy_arr = make_policy(policy_name, weights=weights)
    got = ArraySimulator(
        config.with_(backend="array"), trace, policy_arr
    ).run()
    return ref, got


def _assert_equal(ref, got, label):
    assert got.summary() == ref.summary(), (
        f"{label}: array summary diverged from object summary"
    )
    assert got.drained == ref.drained, f"{label}: drained flag diverged"
    assert ModelMetrics.from_result(got) == ModelMetrics.from_result(ref), (
        f"{label}: ModelMetrics diverged"
    )


@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("leg", ["plain"])
def test_fuzz_trials_equivalent(index, leg):
    """A fixed slice of the fuzz schedule, all policies, both kernels."""
    trial = build_trial(1234, index)
    for policy_name in MODEL_NAMES:
        ref, got = _run_both(
            trial.config, trial.trace, policy_name,
            weights=trial.weights_for(policy_name),
        )
        _assert_equal(ref, got, f"trial {index}/{leg}/{policy_name}")


# --------------------------------------------------------------------- #
# Layer 3: hypothesis over the config shape
# --------------------------------------------------------------------- #

@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    radix=st.integers(min_value=2, max_value=4),
    epoch_cycles=st.integers(min_value=20, max_value=120),
    t_idle=st.integers(min_value=1, max_value=6),
    switching=st.sampled_from(["vct", "wormhole"]),
    req_flits=st.integers(min_value=1, max_value=2),
    resp_flits=st.integers(min_value=2, max_value=5),
    extra_depth=st.integers(min_value=0, max_value=4),
    policy=st.sampled_from(list(MODEL_NAMES)),
    bench=st.sampled_from(["bodytrack", "fluidanimate"]),
    duration=st.integers(min_value=100, max_value=500),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_hypothesis_configs_equivalent(
    radix, epoch_cycles, t_idle, switching, req_flits, resp_flits,
    extra_depth, policy, bench, duration, seed,
):
    config = SimConfig(
        topology="mesh",
        radix=radix,
        epoch_cycles=epoch_cycles,
        t_idle=t_idle,
        switching=switching,
        request_flits=req_flits,
        response_flits=resp_flits,
        buffer_depth=max(req_flits, resp_flits) + extra_depth,
        horizon_ns=None,
        seed=seed,
    )
    trace = generate_benchmark_trace(
        bench, num_cores=config.num_cores,
        duration_ns=float(duration), seed=seed,
    )
    weights = None
    if policy in ("lead", "dozznoc", "turbo"):
        rng = np.random.default_rng(seed)
        weights = rng.normal(0.0, 0.3, size=5)
    ref, got = _run_both(config, trace, policy, weights=weights)
    _assert_equal(ref, got, f"hypothesis {policy}/{bench}")


# --------------------------------------------------------------------- #
# Layer 4: neighbour-reading captures against the per-cycle reference
# --------------------------------------------------------------------- #

def test_full41_capture_matches_per_cycle_reference():
    """DozzNoC-41 training capture equals the per-cycle capture.

    The full-41 set reads neighbour state (``neighbor_ibu_*`` divides a
    gated neighbour's ``occ_sum`` by its ``epoch_cycle``), so no kernel
    may defer or pre-credit a neighbour's counters while capturing it.
    canneal's sparse bursts leave routers gated for most of each epoch.
    """
    config = SimConfig(topology="mesh", radix=4, epoch_cycles=100)
    trace = generate_benchmark_trace(
        "canneal", num_cores=config.num_cores, duration_ns=1500.0, seed=0
    )

    def capture(backend):
        policy = make_policy("dozznoc", feature_set=FULL_FEATURES)
        result = run_simulation(
            config.with_(backend=backend), trace, policy,
            collect_features=True,
        )
        assert policy.uses_gating and not policy.proactive
        return result.stats.training_matrices()

    # The object kernel skips nothing: it is the per-cycle reference.
    x_ref, y_ref = capture("object")
    assert x_ref.shape[0] > 0
    x, y = capture("array")
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(y, y_ref)


# --------------------------------------------------------------------- #
# Dispatch + lane-export sanity
# --------------------------------------------------------------------- #

def test_run_simulation_dispatches_on_backend():
    """``backend="array"`` must actually select the array kernel."""
    config = SimConfig(topology="mesh", radix=2, epoch_cycles=50,
                       horizon_ns=200.0)
    trace = generate_benchmark_trace("bodytrack", num_cores=4,
                                     duration_ns=150.0)
    ref = run_simulation(config, trace, make_policy("baseline"))
    got = run_simulation(
        config.with_(backend="array"), trace, make_policy("baseline")
    )
    assert got.summary() == ref.summary()


def test_lanes_export_shape():
    """The SoA lane export is (routers,), want is (routers, 5)."""
    config = SimConfig(topology="mesh", radix=3, epoch_cycles=50,
                       horizon_ns=200.0, backend="array")
    trace = generate_benchmark_trace("bodytrack", num_cores=9,
                                     duration_ns=150.0)
    sim = ArraySimulator(config, trace, make_policy("baseline"))
    sim.run()
    lanes = sim.lanes()
    n = 9
    assert lanes["occ_total"].shape == (n,)
    assert lanes["res_total"].shape == (n,)
    assert lanes["busy_max"].shape == (n,)
    assert lanes["want"].shape == (n, 5)
    # a drained run ends with empty buffers and no reservations
    assert int(lanes["occ_total"].sum()) == 0
    assert int(lanes["res_total"].sum()) == 0


def _lanes_from_routers(sim) -> dict:
    """Every scheduler lane, recomputed from the routers' own state."""
    routers = sim.network.routers
    want = np.zeros((len(routers), NUM_PORTS), dtype=np.int64)
    for r in routers:
        for ip, buf in enumerate(r.in_buffers):
            if buf.queue:
                want[r.rid, buf.queue[0].out_port] |= 1 << ip
    return {
        "occ_total": np.array(
            [sum(b.occupancy for b in r.in_buffers) for r in routers]
        ),
        "res_total": np.array(
            [sum(b.reserved for b in r.in_buffers) for r in routers]
        ),
        "busy_max": np.array([max(r.out_busy_until) for r in routers]),
        "want": want,
    }


_IN_FLIGHT = {
    "mesh4": dict(topology="mesh", radix=4, epoch_cycles=100),
    "cmesh2": dict(topology="cmesh", radix=2, concentration=4,
                   epoch_cycles=150),
    "cmesh4": dict(topology="cmesh", radix=4, concentration=4,
                   epoch_cycles=100),
}


@pytest.mark.parametrize("policy", ["baseline", "dozznoc"])
@pytest.mark.parametrize("shape", sorted(_IN_FLIGHT))
def test_lanes_match_router_state_mid_flight(shape, policy):
    """Runs stopped at horizons with traffic still in flight export
    lanes equal, exactly, to the ones recomputed from the routers'
    FIFOs, reservations and output-busy ticks."""
    trace = None
    caught = np.zeros(3, dtype=np.int64)
    for horizon_ns in (170.0, 250.0, 330.0):
        config = SimConfig(
            **_IN_FLIGHT[shape], horizon_ns=horizon_ns, backend="array"
        )
        if trace is None:
            trace = generate_benchmark_trace(
                "blackscholes", num_cores=config.num_cores,
                duration_ns=600.0,
            )
        sim = ArraySimulator(config, trace, make_policy(policy))
        assert not sim.run().drained
        lanes = sim.lanes()
        expected = _lanes_from_routers(sim)
        for name, want in expected.items():
            np.testing.assert_array_equal(
                lanes[name], want, err_msg=f"{name} at {horizon_ns} ns"
            )
        caught += [
            expected["occ_total"].sum(),
            expected["res_total"].sum(),
            np.count_nonzero(expected["want"]),
        ]
    # The stops caught packets resident, in transfer and head-of-line.
    assert (caught > 0).all(), caught
