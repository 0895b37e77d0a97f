#!/usr/bin/env python3
"""Watch energy proportionality happen over time.

The paper's whole premise is "a NoC that consumes energy proportional to
the multicore bandwidth demands".  This example records each model's
per-epoch telemetry series while a phase-structured benchmark runs, bins
the router epochs by the time they end, and reports the correlation
between static power and demand (input-buffer utilization) per model.
It then charts, for DozzNoC, how many routers sleep and how utilization
moves from bin to bin.

Run:  python examples/energy_proportionality.py [benchmark]
"""

import sys

import numpy as np

from repro import SimConfig, make_policy, run_simulation
from repro.common.units import BASE_TICKS_PER_NS
from repro.core.modes import MODE_BY_INDEX
from repro.power.dsent import static_power_w
from repro.telemetry import TelemetryRecorder
from repro.telemetry.recorder import EPOCH_ROW_FIELDS
from repro.traffic import generate_benchmark_trace

DURATION_NS = 5_000.0
BIN_NS = 250.0

_COL = {name: i for i, name in enumerate(EPOCH_ROW_FIELDS)}


def epoch_bins(rows, epoch_cycles: int) -> np.ndarray:
    """Per time bin: ``(mean IBU, static power W, gated share)``.

    Each router epoch contributes its measured IBU, the share of its
    cycles spent gated (from the growth of ``off_cycles_total``), and the
    static power of the mode that held during it (the one chosen at the
    previous boundary) for the powered share.
    """
    last_off: dict[int, int] = {}
    last_mode: dict[int, int] = {}
    bins: dict[int, list] = {}
    bin_ticks = BIN_NS * BASE_TICKS_PER_NS
    for row in rows:
        rid = row[_COL["router"]]
        off_total = row[_COL["off_cycles_total"]]
        gated = min((off_total - last_off.get(rid, 0)) / epoch_cycles, 1.0)
        last_off[rid] = off_total
        mode = last_mode.get(rid, row[_COL["mode"]])
        last_mode[rid] = row[_COL["mode"]]
        power = (1.0 - gated) * static_power_w(MODE_BY_INDEX[mode].voltage)
        acc = bins.setdefault(int(row[_COL["tick"]] // bin_ticks), [])
        acc.append((row[_COL["ibu"]], power, gated))
    return np.array(
        [np.mean(bins[b], axis=0) for b in sorted(bins)]
    ).reshape(-1, 3)


def proportionality(series: np.ndarray) -> float:
    """Correlation of static power with demand (NaN if either is flat)."""
    ibu, power = series[:, 0], series[:, 1]
    if len(series) < 3 or ibu.std() <= 1e-12 or power.std() <= 1e-12:
        return float("nan")
    return float(np.corrcoef(ibu, power)[0, 1])


def render(series: np.ndarray) -> str:
    """One text row per time bin: gated share and mean IBU as bars."""
    hi = max(float(series[:, 0].max()), 1e-9)
    lines = [f"{'t (ns)':>7}  {'gated routers':20s}  mean IBU (0..{hi:.3f})"]
    for b, (ibu, _, gated) in enumerate(series):
        lines.append(
            f"{b * BIN_NS:7.0f}  {'#' * round(20 * gated):20s}  "
            f"{'#' * round(30 * ibu / hi)}"
        )
    return "\n".join(lines)


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "bodytrack"
    config = SimConfig.paper_mesh()
    trace = generate_benchmark_trace(
        benchmark, num_cores=config.num_cores, duration_ns=DURATION_NS
    )

    print(f"{benchmark}: power-vs-demand correlation per model")
    series = {}
    for name in ("baseline", "pg", "lead", "dozznoc"):
        recorder = TelemetryRecorder()
        run_simulation(config, trace, make_policy(name), telemetry=recorder)
        series[name] = epoch_bins(recorder.epoch_rows, config.epoch_cycles)
        rho = proportionality(series[name])
        label = "n/a (constant power)" if rho != rho else f"{rho:+.2f}"
        print(f"  {name:9s} {label}")

    print("\nDozzNoC over time:")
    print(render(series["dozznoc"]))
    print(
        "\nThe gated-router bars are the inverse of the demand bars: "
        "routers sleep through compute phases and wake for communicate "
        "phases — energy proportional to bandwidth demand."
    )


if __name__ == "__main__":
    main()
