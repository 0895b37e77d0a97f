"""The paper's qualitative findings, checked on ``repro-all`` payloads.

Each registry entry in :mod:`repro.experiments.repro_all` takes its
claims from :data:`CLAIMS`.  A claim is a sentence plus a predicate over
payloads; the thresholds are those of the per-experiment benches the
claims replaced.  Claims never shape a payload: ``repro-all`` evaluates
them after every build or memo replay, so this module stays out of the
experiment memo's code version, and editing a claim re-checks it
without rebuilding any payload.

Claims are findings, not targets.  A failed claim is reported with its
scale and measured values; it is not tuned, reseeded or narrowed until
it passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - the registry imports this module
    from repro.experiments.repro_all import ReproEntry


@dataclass(frozen=True)
class Claim:
    """One finding an experiment's payload must show.

    ``check`` receives the entry's own payload, then the payloads of the
    experiments named in ``needs``, and returns whether the claim holds.
    It reads only what the payloads hold (headlines, table rows, data)
    and imports nothing, so a warm rerun evaluates every claim without
    numpy.  A claim is ``skipped`` when an experiment it needs was not
    selected, or when it is ``paper_only`` and the run is not at paper
    scale.
    """

    text: str
    check: Callable[..., bool]
    needs: tuple[str, ...] = ()
    paper_only: bool = False


def _records(payload: dict, **where: object) -> list[dict]:
    """The payload's table rows as header -> cell dicts, filtered by
    equality on the ``where`` columns."""
    headers = payload["table"]["headers"]
    rows = [dict(zip(headers, row)) for row in payload["table"]["rows"]]
    return [r for r in rows if all(r[k] == v for k, v in where.items())]


def _column(payload: dict, name: str, **where: object) -> list:
    return [r[name] for r in _records(payload, **where)]


def _by(payload: dict, key: str, **where: object) -> dict[object, dict]:
    """Table rows keyed by one column's value."""
    return {r[key]: r for r in _records(payload, **where)}


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _matrix(payload: dict, source: str) -> list[list]:
    """A table experiment's measured or paper rows, without the source."""
    return [row[1:] for row in payload["table"]["rows"] if row[0] == source]


def evaluate_claims(
    entries: Sequence[ReproEntry],
    payloads: Mapping[str, dict],
    scale_name: str,
) -> dict[str, list[dict]]:
    """Every selected entry's claims as ``[{text, holds}]``.

    ``holds`` is ``True``/``False``, or ``"skipped"`` for a claim that
    needs an unselected experiment or applies at paper scale only.
    """
    out = {}
    for entry in entries:
        results = []
        for claim in entry.claims:
            if (claim.paper_only and scale_name != "paper") or any(
                need not in payloads for need in claim.needs
            ):
                holds: bool | str = "skipped"
            else:
                holds = bool(claim.check(
                    payloads[entry.id], *(payloads[n] for n in claim.needs)
                ))
            results.append({"text": claim.text, "holds": holds})
        out[entry.id] = results
    return out


# ---------------------------------------------------------------------- #
# Per-experiment claims
# ---------------------------------------------------------------------- #


_TABLE1_CLAIMS = (
    Claim("the LDO dropout ranges equal the paper's exactly",
          lambda p: p["headlines"]["max_abs_error"] == 0.0),
)


_TABLE2_CLAIMS = (
    Claim("every switch latency is within 0.25 ns of the paper's",
          lambda p: p["headlines"]["max_abs_error"] < 0.25),
    Claim("the power-gating row holds the largest latency",
          lambda p: max(_matrix(p, "measured")[0])
          == max(max(row) for row in _matrix(p, "measured"))),
    Claim("the 0.8 V -> 1.2 V switch is within 0.25 ns of the paper's",
          lambda p: abs(_matrix(p, "measured")[1][5]
                        - _matrix(p, "paper")[1][5]) < 0.25),
)


_TABLE3_CLAIMS = (
    Claim("the derived T-Switch cycles are 7, 11, 13, 14, 16",
          lambda p: _column(p, "T-Switch", source="measured")[:5]
          == [7, 11, 13, 14, 16]),
    Claim("the derived T-Breakeven cycles are 8, 9, 10, 11, 12",
          lambda p: _column(p, "T-Breakeven", source="measured")
          == [8, 9, 10, 11, 12]),
    Claim("every derived cycle cost is within 2 cycles of the paper's",
          lambda p: p["headlines"]["max_abs_error"] <= 2),
)


_TABLE4_CLAIMS = (
    Claim("the reduced feature set has 5 features",
          lambda p: p["headlines"]["rows"] == 5),
    Claim("the feature count matches the paper's",
          lambda p: p["headlines"]["max_abs_error"] == 0.0),
)


_TABLE5_CLAIMS = (
    Claim("static power and dynamic energy are within 0.01 of the paper's",
          lambda p: p["headlines"]["max_abs_error"] < 0.01),
)


_FIG5_CLAIMS = (
    Claim("T-Wakeup (0 -> 0.8 V) settles within 0.1 ns of the paper's 8.5 ns",
          lambda p: abs(p["headlines"]["t_wakeup_ns"] - 8.5) < 0.1),
    Claim("T-Switch (0.8 -> 1.2 V) settles within 0.2 ns of the paper's "
          "6.9 ns",
          lambda p: abs(p["headlines"]["t_switch_ns"] - 6.9) < 0.2),
)


#: The paper's five DVFS output levels (M3-M7), all on Fig 6's sweep.
_DVFS_VOLTS = (0.8, 0.9, 1.0, 1.1, 1.2)


def _fig6_levels(p: dict) -> list[dict]:
    return [r for r in _records(p) if round(r["vout"], 9) in _DVFS_VOLTS]


_FIG6_CLAIMS = (
    Claim("SIMO system efficiency is above 87% at every DVFS level",
          lambda p: min(r["simo"] for r in _fig6_levels(p)) > 0.87),
    Claim("the mean gain at the four levels below 1.2 V is within 3 points "
          "of the paper's 15%",
          lambda p: abs(_mean([r["gain"] for r in _fig6_levels(p)
                               if r["vout"] < 1.2]) - 0.15) < 0.03),
    Claim("the largest gain is within 3 points of 23.5% (paper: almost "
          "25% at 0.9 V)",
          lambda p: abs(max(r["gain"] for r in _fig6_levels(p)) - 0.235)
          < 0.03),
)


def _breakdowns(p: dict) -> list[dict]:
    """Every (model, benchmark) mode breakdown; modes are string keys."""
    return [d for per in p["data"]["distribution"].values()
            for d in per.values()]


def _m7_total(p: dict, model: str) -> float:
    return sum(d["7"] for d in p["data"]["distribution"][model].values())


_FIG7_CLAIMS = (
    Claim("DozzNoC, LEAD and TURBO each report a mode breakdown",
          lambda p: set(p["data"]["distribution"])
          == {"dozznoc", "lead", "turbo"}),
    Claim("each model's breakdown covers the 5 test benchmarks",
          lambda p: all(len(per) == 5
                        for per in p["data"]["distribution"].values())),
    Claim("every breakdown sums to 1 (within 1e-9)",
          lambda p: all(abs(sum(d.values()) - 1.0) < 1e-9
                        for d in _breakdowns(p))),
    Claim("every breakdown covers exactly the modes M3-M7",
          lambda p: all(set(d) == {"3", "4", "5", "6", "7"}
                        for d in _breakdowns(p))),
    Claim("M3 is DozzNoC's most frequent mode on at least 3 of the 5 "
          "benchmarks",
          lambda p: sum(
              d["3"] == max(d.values())
              for d in p["data"]["distribution"]["dozznoc"].values()
          ) >= 3),
    # The 4x4 quick mesh carries too little through-traffic to leave M3.
    Claim("DozzNoC spends over 5% of its epochs in M4-M7 on some benchmark",
          lambda p: any(
              d["4"] + d["5"] + d["6"] + d["7"] > 0.05
              for d in p["data"]["distribution"]["dozznoc"].values()
          ),
          paper_only=True),
    Claim("TURBO selects M7 at least as often as DozzNoC (summed over the "
          "benchmarks)",
          lambda p: _m7_total(p, "turbo") >= _m7_total(p, "dozznoc")),
)


def _fig8_rows(p: dict, setting: str = "uncompressed") -> dict[str, dict]:
    """One fig8 setting's summary rows keyed by model."""
    return _by(p, "model", setting=setting)


def _baseline_tops_throughput(p: dict) -> bool:
    """Fig 8a: no model beats baseline throughput on any compressed
    benchmark (0.1% slack)."""
    for per_model in p["data"]["compressed"]["metrics"].values():
        base = per_model["baseline"]["throughput_flits_per_ns"]
        if any(per_model[m]["throughput_flits_per_ns"] > base * 1.001
               for m in ("pg", "lead", "dozznoc", "turbo")):
            return False
    return True


_FIG8_CLAIMS = (
    Claim("PG, LEAD, DozzNoC and TURBO each save over 10% static energy",
          lambda p: all(_fig8_rows(p)[m]["static_savings_pct"] > 10.0
                        for m in ("pg", "lead", "dozznoc", "turbo"))),
    Claim("PG saves within 5% dynamic energy either way (it has no DVFS)",
          lambda p: abs(_fig8_rows(p)["pg"]["dynamic_savings_pct"]) < 5.0),
    Claim("LEAD, DozzNoC and TURBO each save over 15% dynamic energy",
          lambda p: all(_fig8_rows(p)[m]["dynamic_savings_pct"] > 15.0
                        for m in ("lead", "dozznoc", "turbo"))),
    Claim("DozzNoC saves at least 5 points more static energy than LEAD",
          lambda p: _fig8_rows(p)["dozznoc"]["static_savings_pct"]
          >= _fig8_rows(p)["lead"]["static_savings_pct"] + 5.0),
    Claim("DozzNoC saves static energy no more than 3 points below PG",
          lambda p: _fig8_rows(p)["dozznoc"]["static_savings_pct"]
          >= _fig8_rows(p)["pg"]["static_savings_pct"] - 3.0),
    Claim("TURBO saves no more than 1 point more dynamic energy than "
          "DozzNoC",
          lambda p: _fig8_rows(p)["turbo"]["dynamic_savings_pct"]
          <= _fig8_rows(p)["dozznoc"]["dynamic_savings_pct"] + 1.0),
    Claim("every model loses under 15% throughput on uncompressed traces",
          lambda p: all(r["throughput_loss_pct"] < 15.0
                        for r in _fig8_rows(p).values())),
    Claim("every model loses under 20% throughput on compressed traces",
          lambda p: all(r["throughput_loss_pct"] < 20.0
                        for r in _fig8_rows(p, "compressed").values())),
    Claim("baseline has the top throughput on every compressed benchmark",
          _baseline_tops_throughput),
    Claim("compression shrinks DozzNoC's gated fraction",
          lambda p: _fig8_rows(p, "compressed")["dozznoc"]
          ["gated_fraction_pct"]
          < _fig8_rows(p)["dozznoc"]["gated_fraction_pct"]),
    Claim("compression shrinks DozzNoC's static savings",
          lambda p: _fig8_rows(p, "compressed")["dozznoc"]
          ["static_savings_pct"]
          < _fig8_rows(p)["dozznoc"]["static_savings_pct"]),
)


_CMESH_CLAIMS = (
    Claim("DozzNoC saves over 10% static energy on the cmesh",
          lambda p: p["headlines"]["dozznoc_static_savings_pct"] > 10.0),
    Claim("DozzNoC saves over 10% dynamic energy on the cmesh",
          lambda p: p["headlines"]["dozznoc_dynamic_savings_pct"] > 10.0),
    Claim("DozzNoC loses under 15% throughput on the cmesh",
          lambda p: p["headlines"]["dozznoc_throughput_loss_pct"] < 15.0),
    Claim("DozzNoC saves more static energy on the mesh than on the cmesh "
          "(paper: 53% vs 39%)",
          lambda p, fig8: fig8["headlines"][
              "uncompressed_dozznoc_static_savings_pct"]
          > p["headlines"]["dozznoc_static_savings_pct"],
          needs=("fig8",)),
)


def _accuracy(p: dict, feature: str) -> float:
    return p["headlines"][f"accuracy_{feature}"]


_FIG9_CLAIMS = (
    Claim("IBU is the strongest single feature",
          lambda p: _accuracy(p, "ibu") == max(
              v for k, v in p["headlines"].items()
              if k.startswith("accuracy_"))),
    Claim("IBU alone selects the right mode over 40% of the time",
          lambda p: _accuracy(p, "ibu") > 0.40),
    Claim("core sends, core receives and off time each score in "
          "[0, IBU's accuracy)",
          lambda p: all(0.0 <= _accuracy(p, f) < _accuracy(p, "ibu")
                        for f in ("core_sends", "core_recvs", "off_time"))),
)


_EPOCH_SWEEP_CLAIMS = (
    Claim("the sweep reports epochs 100, 250, 500, 750 and 1000 in order",
          lambda p: _column(p, "epoch_cycles") == [100, 250, 500, 750, 1000]),
    Claim("training samples shrink as the epoch grows",
          lambda p: _column(p, "n_train_samples") == sorted(
              _column(p, "n_train_samples"), reverse=True)),
    Claim("every epoch size selects the right mode 20-100% of the time",
          lambda p: all(0.2 <= a <= 1.0
                        for a in _column(p, "validation_accuracy"))),
    Claim("every epoch size reaches a validation RMSE below 0.5",
          lambda p: all(e < 0.5 for e in _column(p, "validation_rmse"))),
)


def _variant_gap(p: dict, key: str) -> float:
    return abs(p["data"]["reduced"][key] - p["data"]["full"][key])


_FEATURE_ABLATION_CLAIMS = (
    Claim("DozzNoC-5 and DozzNoC-41 static savings differ by under 10 "
          "points",
          lambda p: _variant_gap(p, "static_savings") < 0.10),
    Claim("DozzNoC-5 and DozzNoC-41 dynamic savings differ by under 10 "
          "points",
          lambda p: _variant_gap(p, "dynamic_savings") < 0.10),
    Claim("both variants save over 10% static energy",
          lambda p: all(v["static_savings"] > 0.1
                        for v in (p["data"]["reduced"], p["data"]["full"]))),
    Claim("both variants save over 10% dynamic energy",
          lambda p: all(v["dynamic_savings"] > 0.1
                        for v in (p["data"]["reduced"], p["data"]["full"]))),
)


_TIDLE_CLAIMS = (
    Claim("T-Idle 64 gates less than the design point T-Idle 4",
          lambda p: _by(p, "t_idle")[64]["gated_fraction"]
          < _by(p, "t_idle")[4]["gated_fraction"]),
    Claim("T-Idle 64 saves no more than 2 points more static energy than "
          "T-Idle 4",
          lambda p: _by(p, "t_idle")[64]["static_savings"]
          < _by(p, "t_idle")[4]["static_savings"] + 0.02),
    Claim("T-Idle 2 wakes routers at least as often as T-Idle 16",
          lambda p: _by(p, "t_idle")[2]["wake_events"]
          >= _by(p, "t_idle")[16]["wake_events"]),
)


_BUFFERS_CLAIMS = (
    Claim("the sweep covers buffer depths 5, 8, 16 and 32",
          lambda p: _column(p, "buffer_depth") == [5, 8, 16, 32]),
    Claim("every depth saves static energy",
          lambda p: all(s > 0.0 for s in _column(p, "static_savings"))),
    Claim("every depth saves dynamic energy",
          lambda p: all(s > 0.0 for s in _column(p, "dynamic_savings"))),
    Claim("depth 32 saves dynamic energy no more than 5 points below "
          "depth 5",
          lambda p: _by(p, "buffer_depth")[32]["dynamic_savings"]
          >= _by(p, "buffer_depth")[5]["dynamic_savings"] - 0.05),
)


def _ladder_dynamic(p: dict, label: str) -> float:
    return _by(p, "ladder")[label]["dynamic_savings"]


_LADDER_CLAIMS = (
    Claim("the 5-mode ladder saves over 5 points more dynamic energy than "
          "M7 alone",
          lambda p: _ladder_dynamic(p, "5 modes (paper)")
          > _ladder_dynamic(p, "1 mode (M7)") + 0.05),
    Claim("dynamic savings order 5 modes >= 3 modes >= M7 alone",
          lambda p: _ladder_dynamic(p, "5 modes (paper)")
          >= _ladder_dynamic(p, "3 modes")
          >= _ladder_dynamic(p, "1 mode (M7)") - 1e-9),
)


#: Experiment id -> its claims (``telemetry`` declares none).
CLAIMS: dict[str, tuple[Claim, ...]] = {
    "table1": _TABLE1_CLAIMS,
    "table2": _TABLE2_CLAIMS,
    "table3": _TABLE3_CLAIMS,
    "table4": _TABLE4_CLAIMS,
    "table5": _TABLE5_CLAIMS,
    "fig5": _FIG5_CLAIMS,
    "fig6": _FIG6_CLAIMS,
    "fig7": _FIG7_CLAIMS,
    "fig8": _FIG8_CLAIMS,
    "fig9": _FIG9_CLAIMS,
    "cmesh": _CMESH_CLAIMS,
    "epoch_sweep": _EPOCH_SWEEP_CLAIMS,
    "feature_ablation": _FEATURE_ABLATION_CLAIMS,
    "tidle": _TIDLE_CLAIMS,
    "buffers": _BUFFERS_CLAIMS,
    "ladder": _LADDER_CLAIMS,
}
