"""The named values that the numpy library and the stdlib-only commands
share, in one stdlib-only module.

The CLI builds its settings table from the choice tuples when it loads,
so they live apart from the numpy modules that check them; a command that
needs none of those modules then imports none of them.  numpy's
SeedSequence and PCG64 constants are here for the same reason: the array
pass of simulate and the scalar generator of sampling both run on them,
and a `sweep`, which runs the first, loads no sampling.
"""

# anchor policies (anchors.AnchorPolicy.kind)
POLICY_KINDS = ("fixed_first", "nearest_within", "temporal_previous",
                "external_predicted")

# sweep bin axes (harness.sweep)
SWEEP_AXES = ("anchor_query_gap", "absolute_query_pose")

# loss ablation modes (losses.LossConfig.mode)
MODES = ("full", "no_fov", "rotation_only", "geodesic", "translation_aux")

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx): the
# pool is mixed from INIT_A and MULT_A, the state words drawn from INIT_B
# and MULT_B, and two pool words combined by MIX_MULT_L and MIX_MULT_R
INIT_A, MULT_A = 0x43b0d7e5, 0x931e8875
INIT_B, MULT_B = 0x8b51f9dd, 0x58f38ded
MIX_MULT_L, MIX_MULT_R = 0xca01f9dd, 0x4973f715

# PCG64's 128-bit LCG multiplier (O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", 2014)
PCG64_MULT = 0x2360ed051fc65da44385df649fccf645
