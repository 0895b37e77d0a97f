#!/usr/bin/env python3
"""The full offline-training flow (Section III.D / IV.A), end to end.

1. Generate the paper's 14-trace suite (6 train / 3 validation / 5 test).
2. Run the *reactive* DozzNoC model on the training traces, exporting each
   router's five features and the future-IBU label every epoch.
3. Sweep the ridge lambda on the validation traces.
4. Run the *proactive* DozzNoC model (trained weights) on a test trace and
   compare it against the reactive variant.

Run:  python examples/train_and_predict.py
"""

from repro import SimConfig, make_policy, run_simulation
from repro.ml.metrics import mode_selection_accuracy
from repro.ml.training import collect_dataset, train_policy_model
from repro.traffic import build_suite

# A reduced scale so the example finishes in about a minute;
# `dozznoc repro-all --scale paper` runs the same flow at paper scale.
CONFIG = SimConfig.paper_mesh(epoch_cycles=500)
DURATION_NS = 3_000.0


def main() -> None:
    suite = build_suite(num_cores=CONFIG.num_cores, duration_ns=DURATION_NS)
    print(f"suite: {len(suite.train)} train / {len(suite.validation)} "
          f"validation / {len(suite.test)} test traces")

    print("\n-- offline phase: reactive runs + ridge fit + lambda sweep --")
    result = train_policy_model(
        "dozznoc", suite.train, suite.validation, CONFIG
    )
    print(f"training samples:      {result.n_train_samples}")
    print(f"selected lambda:       {result.model.lam:g}")
    print(f"validation RMSE:       {result.validation_rmse:.4f}")
    print(f"validation accuracy:   {result.validation_accuracy:.2%} "
          "(same mode as the true future IBU)")
    print("weights:")
    for name, w in zip(result.model.feature_names, result.model.weights):
        print(f"  {name:12s} {w:+.4f}")

    print("\n-- test phase: proactive vs reactive on an unseen trace --")
    test_trace = suite.test[0]
    x_test, y_test = collect_dataset("dozznoc", [test_trace], CONFIG)
    test_acc = mode_selection_accuracy(y_test, result.model.predict(x_test))
    print(f"{test_trace.name}: test mode-selection accuracy {test_acc:.2%}")

    for label, weights in (("reactive", None), ("proactive", result.model.weights)):
        res = run_simulation(
            CONFIG, test_trace, make_policy("dozznoc", weights=weights)
        )
        s = res.summary()
        print(f"{label:10s} static={s['static_pj']:.3g} pJ "
              f"dynamic={s['dynamic_pj']:.3g} pJ "
              f"latency={s['avg_latency_ns']:.1f} ns "
              f"ml_overhead={s['ml_pj']:.1f} pJ")


if __name__ == "__main__":
    main()
