"""The named choices of the library's settings, in one stdlib-only module.

The CLI builds its settings table from these tuples when it loads, so
they live apart from the numpy modules that check them; a command that
needs none of those modules then imports none of them.
"""

# anchor policies (anchors.AnchorPolicy.kind)
POLICY_KINDS = ("fixed_first", "nearest_within", "temporal_previous",
                "external_predicted")

# sweep bin axes (harness.sweep)
SWEEP_AXES = ("anchor_query_gap", "absolute_query_pose")

# loss ablation modes (losses.LossConfig.mode)
MODES = ("full", "no_fov", "rotation_only", "geodesic", "translation_aux")
