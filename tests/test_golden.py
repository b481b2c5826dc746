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
    "analytic_restricted": {"task": "analytic", "temperatures": [0.5, 1.0, 2.0],
                            "model": {"kind": "restricted", "n_agents": 100, "overdraft": 1.5}},
    # K/N = 7/3 slots per agent, the one kind whose k is not an integer.
    "analytic_multi_account": {"task": "analytic", "temperatures": [0.5, 2.0],
                               "model": {"kind": "multi_account", "n_agents": 3, "accounts_per_agent": [1, 2, 4],
                                         "account_overdrafts": [[1.0], [0.0, 2.0], [0.5, 0.5, 3.0, 0.0]]}},
}

# name -> {output file: SHA-256}, computed at the commit that introduced this test.
GOLDEN = {
    "analytic_multi_account": {
        "report.json": "sha256:1e17af2a2738c62a95147206504a48d87e07b939a7db35710e08fe894cf0b0c6",
    },
    "analytic_restricted": {
        "report.json": "sha256:af8c5136e46b36505c68e9733930c81e82e42b656c12df7f9bfe7c5da872de25",
    },
    "cash_only": {
        "report.json": "sha256:7b2e3f46606a55e772c6f52eec0321445396b823a4da1f1d7d2bfdae391f0bb9",
        "samples.csv": "sha256:ecfd0e1020868a5c0f7c370da0bcb8b38c0d4aebd7ae68c56a7eedbc81519b15",
        "histogram.tsv": "sha256:6cb91dc6974ca1c2a59df74abf6da4c09891f847ef0ef59dadd0523a203a9390",
    },
    "credit_market": {
        "report.json": "sha256:3748b404b001b47abbe05b99b1712eb4c789ef95a8ca44064e6c19f163a5f6a7",
        "samples.csv": "sha256:1d872eed37693d16d493b3c694e74fe54cce856cab8754e39f73e957607c9e40",
        "histogram.tsv": "sha256:0ee8a20bf498075ddece1d04bfcf0fe1c2996f92d1676f98986cfbe4634d74da",
    },
    "multi_account": {
        "report.json": "sha256:89eff06375f8b6ccdc9440ce5c85af958d95be4c2f39b117fa677102ede33c7a",
        "samples.csv": "sha256:3900d3a2b1f8098f15f4b2d5033e8b07791284c698af8f31998017e2d8a6256e",
        "histogram.tsv": "sha256:8eacd4646f6c90704cc87aa192b0c3922e9b2e529d57273d0fcc519c24a66b34",
    },
    "overdraft": {
        "report.json": "sha256:7fc7bd9f48690f1649de822dae829ca9587f9d21ac338d4346279b52d57fc6ba",
        "samples.csv": "sha256:c285b8c02a17f096bcc1396ab0faf5004fa6d993d30abf0148c16aabad457362",
        "histogram.tsv": "sha256:3e36dd0d6fde94f883eda5595c0b816f5ae905512e483579260ed689cc6da9c0",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_their_pinned_digests(name, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CASES[name]))
    manifest = run_experiment(load_config(path), tmp_path / "out")
    assert manifest["files"] == GOLDEN[name]
