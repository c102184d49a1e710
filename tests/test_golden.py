"""Golden digests: every output byte of the five sample runs.

Each run's files and captured stdout are pinned by SHA-256, so a change
that moves any output byte fails here and has to be a deliberate break,
recorded with a version bump. Manifests are hashed without ``config_path``,
which depends on where the inputs sit. The digests hold for numpy's float64
kernels on an AVX-512 x86-64 CPU, where ``np.log``/``np.exp``/``**`` may
differ in the last bit from other builds. They also hold for one numpy
release only: numpy does not promise that a ``Generator`` method returns
the same stream across its versions (NEP 19). Print the digests of the current
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
        "price-cap_manifest.json": "03c9d59804a809e94c525900a62d874f14c92de5cbb1a69ee5bc6f0e56c8da58",
    },
    "run_simulate.json": {
        "<stdout>": "f751747ef71c07f617b46445d5c421a955e521fd5f0a6705289b9df5f9d98cf0",
        "portfolio_1_fan_chart.csv": "bc815498437242835b51048ae3b91625c6e3c3f94c395a3976dc03271f74ef2c",
        "portfolio_1_histogram.csv": "00938fb030602d911049ecdb5cc2471c0e78f388847e0d77d15352cee94d8439",
        "portfolio_1_scenarios.csv": "49488f9774b82fd738c00711739a2d5d5ec8be8dba692933d50a28c669625f14",
        "portfolio_scored_fan_chart.csv": "f4a183c6bcc6b1ff46ab0b853ee708258d12c29a67febdd54002af9f3d7d993b",
        "portfolio_scored_histogram.csv": "ee0755611fa3d74ae323bd2262231159ba0cf313801a7349d4e0c6faa7a5a330",
        "portfolio_scored_scenarios.csv": "b0ca8d24a73bcdf121ae251c1b58bd8403058d04f86acf30217e7ddba86c4728",
        "simulate_manifest.json": "6682d22d0e662ac34f99500cc6eeeee76c505d33b8dfdbaa947bdb3916449d53",
    },
    "run_value.json": {
        "<stdout>": "dd49e963698c9086b4ca73932aaf2c91f6609c59b8f8e8c194ab2771735a8a99",
        "lognormal_params.csv": "8327ba32b08b7647f0b04e44d7d0a89692e43409561af15bd1bf51702a4b0e90",
        "portfolio_1_pvfp_samples.csv": "963c7cfea9756b908c746970e9fa8484b4c741d147c566e342709c473ff18d05",
        "portfolio_2_pvfp_samples.csv": "82a014ef8a757baaafbfc651333190e5d9d7c76623665bc45cf12770f31b3485",
        "portfolio_3_pvfp_samples.csv": "5c5d20bf1c2b432a21977fa1578672ac32f38dbd511b8f89edd9c06d2db6f431",
        "risk_report.csv": "3ab23aae872ac0b99b8a2d344f5ba2ea028316cd15a1821f4a037b1da95242df",
        "value_manifest.json": "b1d7cd7b74e7a1604947adf00c3f57475c118dfe639b58c9b59827fdce408703",
    },
    "run_value_replay.json": {
        "<stdout>": "124222f2e088b36c9ac3c605ae9461d5cc20a56565d552b90dca422d3bbde43f",
        "risk_report.csv": "0474d7e0e9410532675b3d96039352d34a55b551d16ec678e5022b8e1fb67c67",
        "value_manifest.json": "0959e5d5bdf4e0e59d48530561b21703af45fbd80617d992daa03feb76451470",
    },
    "run_calibrate.json": {
        "<stdout>": "cababd55a5aac98936262e395c1aeb7849509c4d06bb3af7440403a08e56f50c",
        "calibrate-spread_manifest.json": "321db8f0768299ee1543ea368359ea2db096ce5c0eed87d4ee39ca820f036db5",
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
