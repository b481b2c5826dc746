"""Pinned output digests: short runs whose files must not change by a single byte.

A refactor of the kernels, the closed forms or the writers that keeps a
model's random stream and arithmetic must reproduce these SHA-256 digests.
A change that alters them on purpose states which outputs changed, and why,
and then re-pins them here.
"""

import json

import pytest

from moneygas.runner import load_config, run_experiment

RUN = {"policy": "uniform-random", "total": 500.0, "steps": 40_000, "burn_in": 5_000, "thin": 500}

CASES = {
    "cash_only": {"task": "simulate", "seed": 7, "replicas": 2, "run": RUN,
                  "model": {"kind": "cash_only", "n_agents": 50, "volume_y": 10.0}},
    "overdraft": {"task": "simulate", "seed": 8, "run": dict(RUN, policy="equal", total=100.0),
                  "model": {"kind": "overdraft", "n_agents": 50, "volume_x": 10.0, "overdraft": 2.0}},
    "multi_account": {"task": "simulate", "seed": 9, "run": dict(RUN, total=30.0),
                      "model": {"kind": "multi_account", "n_agents": 20,
                                "accounts_per_agent": [1 + i % 3 for i in range(20)],
                                "account_overdrafts": [[0.5 * (i % 4)] * (1 + i % 3) for i in range(20)]}},
    "credit_market": {"task": "simulate", "seed": 10, "replicas": 2, "run": dict(RUN, total=250.0),
                      "model": {"kind": "credit_market", "n_agents": 50, "volume_x": 1000.0}},
    # 500 records of 160 values: the pooled y_pooled (80,000 values) spans ten blocks of
    # STREAM_BLOCK values in the KS check, and samples.csv ten blocks of 51 records.
    "multi_asset": {"task": "simulate", "seed": 12, "run": dict(RUN, total=400.0, steps=24_000, burn_in=4_000,
                                                                   thin=40),
                    "model": {"kind": "multi_asset", "n_agents": 40, "asset_classes": 4}},
    # The two kinds whose records hold both x and y; restricted starts from its capped draw.
    "combined": {"task": "simulate", "seed": 13, "run": dict(RUN, total=100.0),
                 "model": {"kind": "combined", "n_agents": 50, "overdraft": 2.0}},
    "restricted": {"task": "simulate", "seed": 14, "run": dict(RUN, total=-20.0),
                   "model": {"kind": "restricted", "n_agents": 50, "overdraft": 1.0}},
    "analytic_restricted": {"task": "analytic", "temperatures": [0.5, 1.0, 2.0],
                            "model": {"kind": "restricted", "n_agents": 100, "overdraft": 1.5}},
    # configs/analytic_grid.json: a volume model, so the report carries T_dS_dV_vs_P and dF_dV_vs_P.
    "analytic_credit_market": {"task": "analytic", "temperatures": [0.5, 1.0, 2.0, 4.0, 8.0],
                               "model": {"kind": "credit_market", "n_agents": 100, "volume_x": 1000.0}},
    # K/N = 7/3 slots per agent, the one kind whose k is not an integer.
    "analytic_multi_account": {"task": "analytic", "temperatures": [0.5, 2.0],
                               "model": {"kind": "multi_account", "n_agents": 3, "accounts_per_agent": [1, 2, 4],
                                         "account_overdrafts": [[1.0], [0.0, 2.0], [0.5, 0.5, 3.0, 0.0]]}},
    # configs/carnot_transform.json: the cycle, its free expansion, path.tsv and the identity grid.
    "transform": {"task": "transform",
                  "model": {"kind": "credit_market", "n_agents": 1, "volume_x": 1.0},
                  "cycle": {"t_hot": 4.0, "t_cold": 2.0, "v1": 1.0, "v2": 2.718281828459045},
                  "free_expansion_factor": 1.5,
                  "fractional_reserve": {"reserve_ratio": 0.2, "volume": 100.0, "n_agents": 50,
                                         "reserve_ratio_new": 0.1},
                  "identity_grid": {"temperatures": [0.5, 1.0, 2.0, 4.0, 8.0], "volumes": [500.0, 1000.0]}},
    "pareto": {"task": "pareto", "seed": 11, "temperature": 1.0, "direct_samples": 2_000,
               "pareto": {"n_agents": 20, "floor_j": 1.0, "t_max": 3.0},
               "dynamics": {"mean_log_excess": 0.5, "steps": 20_000, "burn_in": 2_000, "thin": 200},
               "scan": {"temperatures": [0.5, 1.0, 2.0, 2.9]}},
}

# name -> {output file: SHA-256}, computed at the commit that introduced this test.
# Re-pinned since: credit_market, when the credit ledger moved onto the slot kernel.
# A split now stores U·s where it stored a_j + (U·s - a_j), which moves samples.csv
# values in the last digits (at most 2.9e-13 relative) and t_hat from
# 5.000000000000001 to 5.0; max_drift is now relative to the stored slots' sum, 2D,
# instead of V + D. analytic_credit_market was added later, pinned on the code before
# the identity checks moved from estimation into transform. multi_asset was added later,
# pinned on the code before fit, KS and histogram shared one sorted copy. analytic_multi_account and
# analytic_restricted, when the entropy became N·(k·ln T + ln V) + N·k + N·s with each
# floor's share s taken in one stable expression: state.entropy moved by at most
# 8.3e-16 relative, toward the exact value, and the residuals at their 1e-11 noise.
# combined and restricted were added later, pinned on the code before the closed-form
# verbs were checked by running them. pareto's report.json, when dynamics.theta became
# the input mean_log_excess (0.5, not 0.49999999999999983) and matched_temperature went.
# The report.json of every simulate case but credit_market, when each replica's
# mean_money_per_agent became the conserved input total/N (10.0, not 10.000000000000004);
# credit_market's already read exactly 5.0.
GOLDEN = {
    "analytic_credit_market": {
        "report.json": "sha256:2f346e05b3e411d156696bcc8085c3611178d9a549e85c91b7e7a7b0c6ac7c0f",
    },
    "analytic_multi_account": {
        "report.json": "sha256:2e05f519d5d91439be82719ed0c3f7b71124533b8e837af9529775d74a59d7b9",
    },
    "analytic_restricted": {
        "report.json": "sha256:9ee3be4d0136a28ef0a223309628b77a945f68edae882e740c2027997891ceca",
    },
    "cash_only": {
        "report.json": "sha256:2827f5f4c1225e44a534a70fec51ca1365435fafdaa6750940c51659f08ded74",
        "samples.csv": "sha256:ecfd0e1020868a5c0f7c370da0bcb8b38c0d4aebd7ae68c56a7eedbc81519b15",
        "histogram.tsv": "sha256:6cb91dc6974ca1c2a59df74abf6da4c09891f847ef0ef59dadd0523a203a9390",
    },
    "combined": {
        "report.json": "sha256:c4db730962e76bf00afe3f2619480120ed7b49693f94760bce0a70782969b69a",
        "samples.csv": "sha256:a0d6e7827f20e1fca6756af4d6bbba0c32feb477ccffbd74f537c7cd206f459d",
        "histogram.tsv": "sha256:68798e76eb4f122c2c135c60b128fe867a91e2513cc44e1e1297d43d566f3ca2",
    },
    "credit_market": {
        "report.json": "sha256:d32decccec3f9664a488e2f602f08d83a8356b802926f488f414096374d24fc4",
        "samples.csv": "sha256:5d76c8bd6bce6ebfdcd5c9528c4c37374fdc408821b36612c61524572474e1dd",
        "histogram.tsv": "sha256:ec1f5e307bcd0c0ee1ed426a5fac2570ba63981ba0a6ba233c8f07a4ef9fda96",
    },
    "multi_account": {
        "report.json": "sha256:6e1399d5e50208649f3069eb734a3b7f1a509be594f5bb4b68b8b6573052acfd",
        "samples.csv": "sha256:3900d3a2b1f8098f15f4b2d5033e8b07791284c698af8f31998017e2d8a6256e",
        "histogram.tsv": "sha256:8eacd4646f6c90704cc87aa192b0c3922e9b2e529d57273d0fcc519c24a66b34",
    },
    "multi_asset": {
        "report.json": "sha256:adcfd7a25b4a04b919db574309647678587fd5a8917b9d8bb626c2fa2d266b05",
        "samples.csv": "sha256:3459fab777696af306f8570305910de90971cafb340fc2c459e2a02b6576dc4f",
        "histogram.tsv": "sha256:6944fa632e1b487b797dc58ba6238c29d9dbff5613e64a256bc5f86825ed5850",
    },
    "overdraft": {
        "report.json": "sha256:f4b2ab4bfde1bc98e2cf56edc9be8711d49f58fd2bf0ca388f06b1950a152a58",
        "samples.csv": "sha256:c285b8c02a17f096bcc1396ab0faf5004fa6d993d30abf0148c16aabad457362",
        "histogram.tsv": "sha256:3e36dd0d6fde94f883eda5595c0b816f5ae905512e483579260ed689cc6da9c0",
    },
    "pareto": {
        "report.json": "sha256:6db6ac48ee98a044f4d89d84198dee11806380f45575aac2195473a93f867215",
        "samples.csv": "sha256:d91e9930923a47271e03a5eb00ba4494922139f450087b35a53cffa73fc6e860",
        "scan.tsv": "sha256:4492fd1d49e66f46dfe16397f45eeb4ec82d098f6017a56ca43b15dcddcea5f4",
    },
    "restricted": {
        "report.json": "sha256:4f92b7ce850cff792f1a9d46e91502e6542d4f5bc7cf2c2846c476cb7bb6a4cc",
        "samples.csv": "sha256:01d628d116c877ff6071448fc578f25f41df03c21fbe84c59b03b4b17fcaf383",
        "histogram.tsv": "sha256:2326cd96760980c2fdf463b6995d4a646f9f0e399870ddad5af2722612e04bd4",
    },
    "transform": {
        "report.json": "sha256:19c7072f7efa3332c7af24c16c40f435943bab50be070045351069ac5d345ef4",
        "path.tsv": "sha256:1317199489afedb05b0093f5c912bbadf127612ad33f4c29187eacc8cdb08e43",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_their_pinned_digests(name, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CASES[name]))
    manifest = run_experiment(load_config(path), tmp_path / "out")
    assert manifest["files"] == GOLDEN[name]
