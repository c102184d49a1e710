"""Golden digests: every output byte of the five sample runs.

Each run's files and captured stdout are pinned by SHA-256, so a change
that moves any output byte fails here and has to be a deliberate break,
recorded with a version bump. Manifests are hashed without ``config_path``,
which depends on where the inputs sit. The digests hold for numpy's float64
kernels on an AVX-512 x86-64 CPU, where ``np.log``/``np.exp``/``**`` may
differ in the last bit from other builds. Print the digests of the current
code with::

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest

from protval.cli import main

from .test_cli import SAMPLE_DIR

COMMANDS = {
    "run_price_cap.json": "price-cap",
    "run_simulate.json": "simulate",
    "run_value.json": "value",
    "run_value_replay.json": "value",
    "run_calibrate.json": "calibrate-spread",
}

GOLDEN = {
    "run_price_cap.json": {
        "<stdout>": "13a967691162ccaa3a579eb52d8aab688fe0282f3e0d0f212ccc5f5e6f856f09",
        "cap_report.csv": "51282bbc834a3903678535b56a0c02f1038dd92d0552f196618209041175326b",
        "price-cap_manifest.json": "4114dd11d260448bd95f3f37a2a06fdda1c28ddfcf014db7f36f3529c654c206",
    },
    "run_simulate.json": {
        "<stdout>": "f751747ef71c07f617b46445d5c421a955e521fd5f0a6705289b9df5f9d98cf0",
        "portfolio_1_fan_chart.csv": "5492969575c55ca07bd112eb62173c6b808d6bec0daafe24e52e31b7874213f9",
        "portfolio_1_histogram.csv": "d5571c1bbe4c7eaff609fd6714c2ff35b0eb648f45e67146aa694549423da1b3",
        "portfolio_1_scenarios.csv": "4efb9bf9698e05a1f2d21781ee8fbf10d78be8dc4266eb083de643559ca2acb4",
        "portfolio_scored_fan_chart.csv": "29bfe536d953c2426afd8f550088c931296de3cb7d6d8175a5f48d7ff4a66206",
        "portfolio_scored_histogram.csv": "182d4652062c36f31ee1570dd89fec9e0b9545cfe1550594a44902354cdbefed",
        "portfolio_scored_scenarios.csv": "af9be94cc3b8dacc7dd55f09ef5e5bcd4aa3cf67be5e2b2f4d9f1a5096aa1dfd",
        "simulate_manifest.json": "a68fd07ceb15ed2d852bb95dec0b4d62fa536924f5107767f2b797c125762efc",
    },
    "run_value.json": {
        "<stdout>": "e2bb0758d0c8e556cc18ab957824b0cf4e2866cd92ec36776da536395f476d43",
        "lognormal_params.csv": "8327ba32b08b7647f0b04e44d7d0a89692e43409561af15bd1bf51702a4b0e90",
        "portfolio_1_pvfp_samples.csv": "ffea7a5a11be59cc5624a44d657c217ccede9f79794aabf3e968e01e371dd21e",
        "portfolio_2_pvfp_samples.csv": "7d4004b8c5edc9d07c9414f8779b4389de094a79a4e4c92ab27158aace112401",
        "portfolio_3_pvfp_samples.csv": "47a09e918b7b53cb18cec7c13a989cede430c11e8b0854e50453f9e561c5416b",
        "risk_report.csv": "91552dc9aaf7bb87173b7f4e9a0270e9a039ca9f20870ac116dffa73df02268d",
        "value_manifest.json": "4aea74eb805027d65da3a51d6a775fc5e0e8b21342336b686cee7535d4fd9e1c",
    },
    "run_value_replay.json": {
        "<stdout>": "124222f2e088b36c9ac3c605ae9461d5cc20a56565d552b90dca422d3bbde43f",
        "risk_report.csv": "0474d7e0e9410532675b3d96039352d34a55b551d16ec678e5022b8e1fb67c67",
        "value_manifest.json": "a664cf183f618e294bad2665fbd2f8a62e83711610b1f77ec1b22a5a734ce605",
    },
    "run_calibrate.json": {
        "<stdout>": "cababd55a5aac98936262e395c1aeb7849509c4d06bb3af7440403a08e56f50c",
        "calibrate-spread_manifest.json": "17bb8a35ac704c28140068260b94279efef664a01c8a29414418aeb4c022e2e4",
        "spread_function.json": "a787ec8dc40eaabea28b1f08bbd132ba27d62528d9f9868392afaa2de6245a9b",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(config_name: str, workdir: Path) -> dict[str, str]:
    """Run one sample config on a copy of ``sample_inputs`` and hash what it leaves."""
    inputs = workdir / "sample_inputs"
    shutil.copytree(SAMPLE_DIR, inputs, ignore=shutil.ignore_patterns("out"))
    config = inputs / config_name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([COMMANDS[config_name], "--config", str(config)]) == 0

    digests = {"<stdout>": _sha256(stdout.getvalue().encode("utf-8"))}
    out_dir = inputs / json.loads(config.read_text(encoding="utf-8"))["output_dir"]
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name.endswith("_manifest.json"):
            manifest = json.loads(data)
            del manifest["config_path"]
            data = json.dumps(manifest, sort_keys=True).encode("utf-8")
        digests[path.name] = _sha256(data)
    return digests


@pytest.mark.parametrize("config_name", sorted(COMMANDS))
def test_sample_run_matches_its_golden_digests(config_name, tmp_path):
    assert run_digests(config_name, tmp_path) == GOLDEN[config_name]


if __name__ == "__main__":
    for name in COMMANDS:
        with tempfile.TemporaryDirectory() as scratch:
            print(f'    "{name}": {{')
            for key, digest in run_digests(name, Path(scratch)).items():
                print(f'        "{key}": "{digest}",')
            print("    },")
