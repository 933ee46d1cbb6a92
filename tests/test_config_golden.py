"""Byte lock on config-driven CLI runs.

benchmark/golden.json covers flag-driven runs only.  This test runs every
command that reads a config file (simulate, sweep on all three policies,
easy and hard pairs, eval, loss) plus report, at a fixed seed, and compares
the SHA-256 of every output file with digests recorded before the settings
table in relhpe.cli replaced per-command config merging.  The configs mix
config-only keys, flags that override config values, and int values where
the setting is a float, so precedence, conversion and the raw config echo
are all part of the bytes.  The sim_stdlib digest was recorded with
numpy's default_rng drawing the poses, before simulate moved to
relhpe.sampling.

The pipeline also ingests its simulated log and a BIWI-style fixture
with a non-identity depth-to-RGB transform.  Their digests were recorded
while harness still read a canonical file through its own numpy block
reader, before tables.canonical_subjects became the one reader.  Like the
other numpy outputs, the BIWI log's bytes depend on the BLAS kernel: its
digest was recorded on OpenBLAS's default (SkylakeX) kernel on x86-64.
"""

import hashlib
import json

import numpy as np

from relhpe import EulerAngles, ingest_canonical_all, rotation_from_euler
from relhpe.cli import main

from conftest import frame_records, random_pose, write_biwi_fixture

SIM_CONFIG = {"subjects": 2, "frames_per_log": 60, "yaw_min": -70,
              "yaw_max": 70.0, "pitch_min": -35.0, "pitch_max": 35,
              "roll_min": -20.0, "roll_max": 20.0}
SWEEP_CONFIG = {"policy": "fixed_first", "bin_width_deg": 10,
                "threshold_deg": 30, "abs_base_deg": 1.0, "abs_slope": 0.1,
                "rel_base_deg": 0.25, "rel_slope": 0.05, "trans_noise_mm": 2}
PAIRS_CONFIG = {"neutral_thresh_deg": 40, "extreme_thresh_deg": 45.0,
                "max_gap_deg": 30.0, "n_pairs": 25}
LOSS_CONFIG = {"gamma": 0.8, "mode": "no_fov", "lambda_t": 0.5}
STAGES_PRED = ("1,1.0,2.0,3.0,0.99,0.1,0.0,0.0,60.0,58.0",
               "2,0.5,-1.0,0.0,1.0,0.0,0.05,0.0,61.0,59.5",
               "3,0.0,0.25,-0.5,0.98,0.0,0.0,0.2,62.0,60.0")
STAGES_TRUE = ("1,0.0,0.0,0.0,1.0,0.0,0.0,0.0,60.0,60.0",
               "2,0.0,0.0,0.0,1.0,0.0,0.0,0.0,60.0,60.0",
               "3,0.0,0.0,0.0,1.0,0.0,0.0,0.0,60.0,60.0")

GOLDEN = {
    "biwi/s01/frame_00000_pose.txt":
        "1112c91332b28410259ea4f468c6dc58b7a08143dbf033c0996f2d7561ae8776",
    "biwi/s01/frame_00001_pose.txt":
        "be6e0d4c15bd68729603f56333d8f69b745d9b2f91665441dea7a47296575b94",
    "biwi/s01/frame_00002_pose.txt":
        "372fcee271c131a35113a4c36ce7e88893b6003e114d80209e65f060078e9014",
    "biwi/s01/frame_00003_pose.txt":
        "911d7322b8234dc76d9f7aeae95fb98427b2df583e1123af84a94040d09fe340",
    "biwi/s01/frame_00004_pose.txt":
        "4a8a4e86ee2dde32226c2147aa5071cfc9d48e8ad7b6a8e092a8463391471605",
    "biwi/s01/frame_00005_pose.txt":
        "263d0a08391bd542ff717673ed79b3bc92dd9cc115bb84a4b16855f0e5a469a7",
    "biwi/s01/rgb.cal":
        "0e6a5dbdbf53016bace4256a4910a79c2663b64f37a29d8d49693406a1b9976f",
    "ev/eval.csv":
        "650fe572c7bc9376b4f6d57bf95f237c6dd06c57cc1f357ddf6ed436d2782dc3",
    "ev/eval.json":
        "0cbfcbdcc0ebe3f1788d9fe0b7203ac470f3fdc63bf857f21346724d3a961685",
    "ing/poselog.csv":
        "9cb86f707a0f12838be2f30baebbd3e8ced7ec23b354f8e797baf26690acdf56",
    "ing_biwi/poselog.csv":
        "4f8ca346587a562aa0efe05138d81e116f28c161859581a8e124d231d1f3f074",
    "loss/loss.json":
        "7cddbcd874c3f2d8bb62c6b865439ddb327bd7c79f193a31556f6b9f78bc4efe",
    "loss.json":
        "77f2bba9e8d01e1614f37cc2679a3ac575a177fcc674161783a6976920294972",
    "other/simulated_poselog.csv":
        "454e602e066da68f0238ce4fc45794230d6b27938853c73e4c0381e0b1e323fc",
    "p_easy/pairs_subj000.csv":
        "f5392b5787e30d9530b9007849b6cf8979b9de447409982424422f2dc350ee8a",
    "p_easy/pairs_subj000.json":
        "fa0616e3d120bbac12d404199ec4ab85db62c14ac4c59b6e6ee55356b4b72394",
    "p_easy/pairs_subj001.csv":
        "b1ef2ee2f3ba326da25788ad0a2359acb06d70a3eb29dc99b50718648f12e91d",
    "p_easy/pairs_subj001.json":
        "2b4d9d2536da807e384c6d3102ef9430d46b13f375ffc0a6eb5aa54de7ed4bbd",
    "p_hard/pairs_subj000.csv":
        "c9d7fb3875bf8dde07af86645a5ccb435557bb7480f0024d298d89e767ba5e41",
    "p_hard/pairs_subj000.json":
        "cf7ac0f67835205cbe44ea90b681d2821d5b8e99e616368b8bb392c3fb1845d8",
    "p_hard/pairs_subj001.csv":
        "ad86398d6302a3b48359a781068201a7f4579d83dfb67d1eb3a9c0af9575c0d2",
    "p_hard/pairs_subj001.json":
        "d33e875155b7de00bb5da6ba220efb57bd7c6cba47bda93b838e86313496cf5b",
    "pairs.json":
        "4cba5ac4558891467a0b719d551007c03dfdded6ebbcf373f4f47aa5b8ec8432",
    "pred_stages.csv":
        "44be642591717f4f4376de1c476af9dae2b923096936ac241ada7842b937be53",
    "preds.csv":
        "27341a9ba658f06564cf90375bae009e014da4ac4cab739b671eadc222507b09",
    "rep/eval.csv":
        "650fe572c7bc9376b4f6d57bf95f237c6dd06c57cc1f357ddf6ed436d2782dc3",
    "rep/pairs_subj001.csv":
        "ad86398d6302a3b48359a781068201a7f4579d83dfb67d1eb3a9c0af9575c0d2",
    "rep/sweep.csv":
        "c63b81460efc0440565c04c591001dc654f17886b029650355c71d9e21a504ff",
    "sim_stdlib/simulated_poselog.csv":
        "997b53fe9df32b46f74e29cfd067bc30184c7ef92a10a7b30d321ec1527847fb",
    "sim/simulated_poselog.csv":
        "9cb86f707a0f12838be2f30baebbd3e8ced7ec23b354f8e797baf26690acdf56",
    "sim.json":
        "29b4cb3588508c07c239c4254dc24dbfd6d349f0f63242101be0a0ef466ca339",
    "sw_fixed/sweep.csv":
        "c63b81460efc0440565c04c591001dc654f17886b029650355c71d9e21a504ff",
    "sw_fixed/sweep.json":
        "14c1be2a235f304009b97be09af3138c8e47dea581e31cbd0b38e78a890a6881",
    "sw_fixed/sweep.svg":
        "8a7d4240cccb6239baa0b2dbef9e786a641a7ea5c0b8c3835df376d9659fa867",
    "sw_nearest/sweep.csv":
        "eac7ae269657e890552c2d8029ad99e5c00a2a0fc6ce55d6c33205ffcc462f26",
    "sw_nearest/sweep.json":
        "2a783bc6b8561395d354231d919ef5bed0a762e7d0fd373545e9f4dbd10a305e",
    "sw_nearest/sweep.svg":
        "4f50c1fffd0d8365421f2e09cfd3429f89a29ba68c76a185baeb691ab8948302",
    "sw_temporal/sweep.csv":
        "f5fd9d66fc7b886e8b09894a9c048f496cd7c314bca9d73a442f73bb359ca1b3",
    "sw_temporal/sweep.json":
        "d6cd7aa82e38a23a4c5b451d71fea8ec2ddd3661b349252d2773d0feafc225e2",
    "sw_temporal/sweep.svg":
        "8551038cdab8b55a2ceab40ce2681851df3f5ac390dea2d75d3e24fd12bf4522",
    "sweep.json":
        "486da98421ae0b1dee474218c49deb4d8a145bf635f7482070512ec2f084cde0",
    "true_stages.csv":
        "2f134d93007669b5bc7063e7d06be0088e5abcc6c275915b1f393aebec12fe05",
    "truth/pairs_subj000.csv":
        "7679963316113b838fdee207084023a8fc95a75f8e5f1dd20be9d41491e3e3fd",
    "truth/pairs_subj000.json":
        "bb91ac747c1308de850b173dceea3a3332a298bfb4c64ad84ad151c7fd151704",
    "truth/simulated_poselog.csv":
        "b603bf11bb017360182d5c954eb57a3c6f39d80607c8915d464cea2173413ce1",
}


def _run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _predictions_from_log(log_path, dest):
    lines = ["query_id,qw,qx,qy,qz,tx_mm,ty_mm,tz_mm"]
    for f in frame_records(ingest_canonical_all(log_path)[0]):
        q, t = f.pose.rotation, f.pose.translation
        lines.append(",".join([f.frame_id] + [repr(float(v)) for v in
                                              (q.w, q.x, q.y, q.z, *t)]))
    _write(dest, "\n".join(lines) + "\n")


# The pipeline's commands that run without numpy, last: (out dir, argv).
# eval scores a single-subject truth log against another seed's poses;
# simulate draws from a seed of three 32-bit words (2**70 + 3).
STDLIB_RUNS = (
    ("sim_stdlib", ("--seed", str(2**70 + 3), "--config", "sim.json",
                    "--out", "sim_stdlib", "simulate", "--frames-per-log", "45")),
    ("loss", ("--config", "loss.json", "--out", "loss", "loss",
              "pred_stages.csv", "true_stages.csv")),
    ("ev", ("--seed", "9", "--out", "ev", "eval", "truth/simulated_poselog.csv",
            "truth/pairs_subj000.csv", "preds.csv")),
    *(("rep", ("--out", "rep", "report", src)) for src in (
        "sw_fixed/sweep.json", "p_hard/pairs_subj001.json", "ev/eval.json")),
)


def run_pipeline():
    """Run every command of the pipeline in the current directory, which
    should be empty: reports echo input paths, so the layout is fixed."""
    for name, cfg in (("sim", SIM_CONFIG), ("sweep", SWEEP_CONFIG),
                      ("pairs", PAIRS_CONFIG), ("loss", LOSS_CONFIG)):
        _write(f"{name}.json", json.dumps(cfg))
    _write("pred_stages.csv", "k,tx,ty,tz,qw,qx,qy,qz,fov_h_deg,fov_w_deg\n"
           + "\n".join(STAGES_PRED) + "\n")
    _write("true_stages.csv", "\n".join(STAGES_TRUE) + "\n")

    _run("--seed", 11, "--config", "sim.json", "--out", "sim", "simulate")
    log = "sim/simulated_poselog.csv"
    _run("--seed", 3, "--config", "sweep.json", "--out", "sw_fixed",
         "sweep", log)
    _run("--seed", 3, "--config", "sweep.json", "--out", "sw_temporal",
         "sweep", log, "--policy", "temporal_previous")
    _run("--seed", 3, "--config", "sweep.json", "--out", "sw_nearest",
         "sweep", log, "--policy", "nearest_within",
         "--axis", "absolute_query_pose", "--bin-width-deg", 7.5)
    _run("--seed", 5, "--config", "pairs.json", "--out", "p_easy",
         "pairs", log, "--pair-kind", "easy")
    _run("--seed", 5, "--config", "pairs.json", "--out", "p_hard",
         "pairs", log, "--pair-kind", "hard", "--n-pairs", 12)
    _run("--out", "ing", "ingest", log)

    rng = np.random.default_rng(7)
    write_biwi_fixture("biwi/s01", [random_pose(rng, frame="depth") for _ in range(6)],
                       [[520.0, 0, 315], [0, 518.0, 242], [0, 0, 1]],
                       rotation_from_euler(EulerAngles(3.0, -2.0, 1.5)).as_matrix(),
                       [-25.0, 4.0, 12.0])
    _run("--out", "ing_biwi", "ingest", "biwi/s01", "--input-format", "biwi")

    # eval's inputs: a single-subject truth log, another seed's poses
    _run("--seed", 21, "--config", "sim.json", "--out", "truth",
         "simulate", "--subjects", 1)
    _run("--seed", 22, "--config", "sim.json", "--out", "other",
         "simulate", "--subjects", 1)
    _predictions_from_log("other/simulated_poselog.csv", "preds.csv")
    _run("--seed", 5, "--config", "pairs.json", "--out", "truth",
         "pairs", "truth/simulated_poselog.csv", "--pair-kind", "easy")

    for _, argv in STDLIB_RUNS:
        _run(*argv)


def digests(root) -> dict:
    """{path relative to root: SHA-256} of every file under root."""
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(p for p in root.rglob("*") if p.is_file())}


def test_config_driven_outputs_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_pipeline()
    assert digests(tmp_path) == GOLDEN
