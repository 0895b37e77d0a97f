"""Bench: raw simulator kernel performance (router-cycles per second).

Not a paper experiment — this tracks the substrate's own speed so
regressions in the hot path (the per-cycle router loop) are visible.
Uses multiple pytest-benchmark rounds.
"""

from repro.common.config import SimConfig
from repro.core.controller import make_policy
from repro.noc.simulator import run_simulation
from repro.traffic.benchmarks import generate_benchmark_trace

CONFIG = SimConfig(topology="mesh", radix=4, epoch_cycles=250,
                   horizon_ns=1_000.0)
TRACE = generate_benchmark_trace("bodytrack", num_cores=16,
                                 duration_ns=900.0)


def test_kernel_speed_baseline(benchmark):
    result = benchmark(
        lambda: run_simulation(CONFIG, TRACE, make_policy("baseline"))
    )
    assert result.stats.packets_delivered > 0


def test_kernel_speed_dozznoc(benchmark):
    result = benchmark(
        lambda: run_simulation(CONFIG, TRACE, make_policy("dozznoc"))
    )
    assert result.stats.packets_delivered > 0


def test_kernel_speed_dozznoc_telemetry(benchmark):
    from repro.telemetry import TelemetryRecorder

    result = benchmark(
        lambda: run_simulation(
            CONFIG, TRACE, make_policy("dozznoc"),
            telemetry=TelemetryRecorder(),
        )
    )
    assert result.stats.packets_delivered > 0


def test_telemetry_overhead_bounded():
    """Telemetry-on must stay within 10% of telemetry-off wall-clock.

    Interleaved best-of-N: each variant's minimum over alternating runs,
    so a background load spike hits both sides rather than biasing one.
    """
    from time import perf_counter

    from repro.telemetry import TelemetryRecorder

    def run_off():
        return run_simulation(CONFIG, TRACE, make_policy("dozznoc"))

    def run_on():
        return run_simulation(
            CONFIG, TRACE, make_policy("dozznoc"),
            telemetry=TelemetryRecorder(),
        )

    run_off(), run_on()  # warm caches / JIT'd import machinery
    best_off = best_on = float("inf")
    for _ in range(7):
        t0 = perf_counter()
        run_off()
        best_off = min(best_off, perf_counter() - t0)
        t0 = perf_counter()
        run_on()
        best_on = min(best_on, perf_counter() - t0)
    assert best_on <= best_off * 1.10, (
        f"telemetry overhead {100 * (best_on / best_off - 1):.1f}% "
        f"exceeds the 10% budget (off={best_off:.4f}s on={best_on:.4f}s)"
    )


# --------------------------------------------------------------------- #
# Backend comparison: object kernel vs structure-of-arrays kernel
# --------------------------------------------------------------------- #

#: Full-workload window for the kernel comparison: the bodytrack trace is
#: 900 ns of bursty traffic; a 2000 ns horizon covers the burst *and* the
#: idle tail, the regime the paper's power-gating story is about.  On this
#: window the array kernel's gated-epoch fast path pays off most.
FULL_CONFIG = SimConfig(topology="mesh", radix=4, epoch_cycles=250,
                        horizon_ns=2_000.0)

#: Policies whose object-kernel run is *kernel-bound*: no gating, so there
#: are no gated heartbeats for the array kernel to elide and the
#: comparison isolates raw per-cycle loop cost.  The >=3x acceptance
#: bound applies to these cases only; on gating policies (pg/lead/
#: dozznoc/turbo) the object kernel fires every gated heartbeat while the
#: array kernel elides them as GATED spans, so those ratios also measure
#: span coverage — they are reported in BENCH_kernel.json but not gated
#: on.
KERNEL_BOUND_POLICIES = ("baseline",)

#: The paper's 8x8 mesh (epoch 500) on a short window: 400 ns of bodytrack
#: (about 1,500 packets) and its drain, so the uploaded BENCH_kernel.json
#: tracks the kernel at paper scale, not only at 4x4.  Informational: no
#: speedup bound applies to it.
MESH8_CONFIG = SimConfig.paper_mesh(horizon_ns=800.0)
MESH8_TRACE = generate_benchmark_trace("bodytrack", num_cores=64,
                                       duration_ns=400.0)


def _bench_backend_case(config, trace, policy_name, rounds):
    """Interleaved best-of-N wall-clock for one policy on both backends.

    Alternating object/array runs inside one process means a background
    load spike penalises both kernels instead of biasing the ratio.
    Returns ``(best_object_s, best_array_s, summaries_equal)``.
    """
    from time import perf_counter

    object_config = config.with_(backend="object")
    array_config = config.with_(backend="array")

    def run_object():
        return run_simulation(object_config, trace, make_policy(policy_name))

    def run_array():
        return run_simulation(array_config, trace, make_policy(policy_name))

    ref, got = run_object(), run_array()  # warm-up + equivalence probe
    equal = ref.summary() == got.summary()
    best_obj = best_arr = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        run_object()
        best_obj = min(best_obj, perf_counter() - t0)
        t0 = perf_counter()
        run_array()
        best_arr = min(best_arr, perf_counter() - t0)
    return best_obj, best_arr, equal


def _router_cycles(config):
    """Nominal simulated router-cycles for one run of ``config``.

    Routers x horizon at the top-mode clock (2.25 GHz).  A normalisation
    constant shared by both backends, so ratios are pure wall-clock; the
    absolute router-cycles/sec figures make runs comparable across
    configs.
    """
    from repro.core.modes import MODES

    n_routers = config.radix * config.radix
    top_ghz = max(m.freq_ghz for m in MODES)
    return n_routers * config.horizon_ns * top_ghz


def _compare_backends(config, trace, rounds):
    """One row of the comparison: every policy on both backends."""
    from repro.experiments.runner import MODEL_NAMES

    cycles = _router_cycles(config)
    cases = {}
    for policy_name in MODEL_NAMES:
        best_obj, best_arr, equal = _bench_backend_case(
            config, trace, policy_name, rounds
        )
        assert equal, (
            f"object and array kernels diverged on policy {policy_name!r} "
            f"({config.topology} radix {config.radix})"
        )
        cases[policy_name] = {
            "object_s": best_obj,
            "array_s": best_arr,
            "object_router_cycles_per_s": cycles / best_obj,
            "array_router_cycles_per_s": cycles / best_arr,
            "speedup": best_obj / best_arr,
            "kernel_bound": policy_name in KERNEL_BOUND_POLICIES,
        }
    return cases


def _config_fields(config):
    return {
        "topology": config.topology,
        "radix": config.radix,
        "epoch_cycles": config.epoch_cycles,
        "horizon_ns": config.horizon_ns,
    }


def test_backend_comparison_emits_kernel_json(report_dir, artifact_out):
    """Object-vs-array kernel comparison across all five policies.

    Writes the ``BENCH_kernel`` datapoint (router-cycles/sec per backend
    x policy plus the speedup ratio, on the 4x4 window and, under
    ``mesh8``, on the paper's 8x8 mesh) into the schema-versioned
    ``out/bench/`` slot shared with ``repro-all`` manifests, keeping an
    unwrapped compat copy at the legacy ``benchmarks/out/`` path for CI
    upload, and asserts:

    * both backends produce identical ``summary()`` dicts on every case
      (bit-identity smoke — the full proof lives in the golden suite and
      the ``--differential-backend`` fuzz leg), and
    * the array kernel is >=3x faster on the kernel-bound 4x4 baseline
      case (the 8x8 row is not gated).
    """
    import os

    from repro.experiments.artifact import write_bench_artifact

    quick = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "", "false")
    rounds = 5 if quick else 9

    cases = _compare_backends(FULL_CONFIG, TRACE, rounds)
    mesh8_cases = _compare_backends(MESH8_CONFIG, MESH8_TRACE, rounds)

    payload = {
        "bench": "kernel-backend-comparison",
        "trace": "bodytrack x16 cores, 900 ns",
        "config": _config_fields(FULL_CONFIG),
        "rounds": rounds,
        "router_cycles_per_run": _router_cycles(FULL_CONFIG),
        "note": (
            "speedup gate applies to kernel_bound cases only; on gating "
            "policies the object kernel fires every gated heartbeat and "
            "the array kernel elides them as GATED spans, so those ratios "
            "also measure span coverage (see docs/backends.md)"
        ),
        "cases": cases,
        "mesh8": {
            "trace": "bodytrack x64 cores, 400 ns",
            "config": _config_fields(MESH8_CONFIG),
            "router_cycles_per_run": _router_cycles(MESH8_CONFIG),
            "cases": mesh8_cases,
        },
    }
    path = write_bench_artifact(
        artifact_out, "BENCH_kernel", payload, legacy_dir=report_dir
    )
    print(f"\n[kernel comparison written to {path}]")
    for label, rows in (("4x4", cases), ("8x8", mesh8_cases)):
        for name, row in rows.items():
            print(f"  {label} {name:14s} object {row['object_s']:.4f}s  "
                  f"array {row['array_s']:.4f}s  {row['speedup']:.2f}x  "
                  f"{row['array_router_cycles_per_s'] / 1e6:.2f} M "
                  "router-cycles/s")

    for policy_name in KERNEL_BOUND_POLICIES:
        ratio = cases[policy_name]["speedup"]
        assert ratio >= 3.0, (
            f"array kernel only {ratio:.2f}x over object on kernel-bound "
            f"policy {policy_name!r} (need >=3x)"
        )


def test_object_backend_speed_canary():
    """Catastrophic-regression canary for the object kernel's hot loop.

    The hoisted ``_fire``/``_forward`` bindings must never be *undone*:
    best-of-7 on the 1000 ns case runs in ~0.1 s on the object kernel (a
    2-vCPU x86 box), so a 2 s ceiling only trips on an order-of-magnitude
    regression, not machine noise.
    """
    from time import perf_counter

    config = CONFIG.with_(backend="object")
    run_simulation(config, TRACE, make_policy("dozznoc"))  # warm-up
    best = float("inf")
    for _ in range(7):
        t0 = perf_counter()
        run_simulation(config, TRACE, make_policy("dozznoc"))
        best = min(best, perf_counter() - t0)
    assert best < 2.0, (
        f"object kernel took {best:.3f}s best-of-7 on the 1000 ns case — "
        "an order-of-magnitude regression in the per-cycle loop"
    )
