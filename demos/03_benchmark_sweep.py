"""End-to-end benchmark walkthrough with simulated estimators.

Samples synthetic pose logs, pairs queries to nearest anchors, runs an
absolute and a relative simulated estimator through the harness's sweep,
and prints per-bin error along the anchor-query gap axis; then builds an
easy and a hard pair set per log and scores both estimators on each.

Run with: python3 demos/03_benchmark_sweep.py
"""

from relhpe import (AbsoluteSimEstimator, AnchorPolicy, NoiseModel,
                    PoseSampler, RelativeSimEstimator, build_easy_pairs,
                    build_hard_pairs, pair_batch, sample_logs, score, sweep)


def main():
    logs = sample_logs(PoseSampler(frames_per_log=200, subjects=3, seed=0))

    estimators = [
        AbsoluteSimEstimator("absolute", NoiseModel(
            base_deg=2.0, slope_deg_per_deg=0.15, seed=0)),
        RelativeSimEstimator("relative", NoiseModel(
            base_deg=0.5, slope_deg_per_deg=0.02, seed=0)),
    ]
    policy = AnchorPolicy("nearest_within", threshold_deg=60.0)

    report = sweep(logs, estimators, policy, "anchor_query_gap",
                   bin_width_deg=10.0)
    print(f"paired queries: {report.total_paired}, "
          f"unpaired: {report.total_unpaired}")
    print(f"{'gap bin':>12s} {'n':>5s} {'abs MAE':>9s} {'rel MAE':>9s}")
    for b in report.bins:
        if b.pair_count == 0:
            continue
        print(f"{b.lo:5.0f}-{b.hi:<5.0f} {b.pair_count:>5d} "
              f"{b.reports['absolute'].mae:>9.3f} "
              f"{b.reports['relative'].mae:>9.3f}")

    # easy and hard pair-set summaries for the same estimators
    builders = {
        "easy": lambda log: build_easy_pairs(
            log, neutral_thresh_deg=40.0, max_gap_deg=20.0, n_pairs=200, seed=0),
        "hard": lambda log: build_hard_pairs(
            log, neutral_thresh_deg=40.0, extreme_thresh_deg=45.0, n_pairs=200,
            seed=0),
    }
    for kind, build in builders.items():
        out = score(estimators, [pair_batch(log, build(log)) for log in logs])
        line = ", ".join(f"{eid}: MAE {rep.mae:.3f} deg (n={rep.n})"
                         for eid, rep in sorted(out.items()))
        print(f"{kind} pairs -> {line}")


if __name__ == "__main__":
    main()
