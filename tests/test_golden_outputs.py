"""Golden outputs of the command line on every config in `configs/`.

Each config runs `solve` (mse and delay), `sweep`, `stability`, a `simulate`
of `psi` (500 slots, 2 replicates, seed 5) and `highsnr`. The sha256 of every
output file was recorded before static links were solved as the one-state
Markov chain, and the files must stay byte-identical. Only the static
configs' policy files and `stability.txt` have moved since, on purpose: the
policy files are written in the one-state Markov layout (keys `r|q|0`,
headers `omega_caps` and `gains`, the actions and solve headers unchanged
key for key), and the `Lambda0` line carries the budget-boundary flag.
Since relative value iteration is damped, every policy file's `zeta`,
`span` and `iterations` headers and the `zeta` and `iterations` columns of
`sweep.csv` have moved as well; no action in any policy file has.
Before hashing, `np.float64(x)` is rewritten to `x` (older releases wrote
numpy reprs into the CSVs) and the output directory to `<out>`.

`highsnr.txt` is compared by value instead: the threshold scan evaluates each
table on the MDP's kernel by elimination, which moves the costs in the last
digits.
Static costs must stay within 1e-14 of the closed form, and the optimal
thresholds must not move.
"""

import hashlib
import re
from pathlib import Path

import pytest

from reference import high_snr_zeta_static

from harqest import build_cost_ladder, solve_steady_state
from harqest.cli import main
from harqest.config import load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

CALLS = {
    "solve": ["solve"],
    "solve-delay": ["solve", "--cost", "delay"],
    "sweep": ["sweep"],
    "stability": ["stability"],
    "simulate": ["simulate", "--policy", "psi"],
    "highsnr": ["highsnr"],
}

GOLDEN = {
    "default_markov.cfg": {
        "codes": {"solve": 0, "solve-delay": 0, "sweep": 0, "stability": 0, "simulate": 0, "highsnr": 0},
        "files": {
            "comparison.csv":
                "c8fa9f03c025805be6145c104dfd1d6887848c26b2a058f956eba6924f7018ed",
            "policy_markov_delay.txt":
                "fe80810ed92cba73d1cd08d2d6507f4e252e322d54143fa93f16114dd8c46e83",
            "policy_markov_mse.txt":
                "3606744e198e7828d842fb00a721a73fac9e6bc5146ab88a26d476db787d807d",
            "stability.txt":
                "f2ba47ee6754d2d90723c3d89021a073e3660a8c1c709c6f197acc56c39cd3a4",
            "stability_region.csv":
                "08087fb97fb1398d1e5ab671bcc6abfe1c2d35467672352646f0dac066c0fcef",
            "sweep.csv":
                "510398f59c6883b5e30652c94c75ca2437b8548d05f6ff5c7bf500a4ee10decf",
            "trace_psi_rep0.csv":
                "62b915b9cc5255be3fea3f8e36a2c23e784474093c66cc88406ffa75591fae8a",
            "trajectory_psi.csv":
                "5992af3faa8749706e182d27799a7746a8a2b5d80408aa7d33a10417e7de332a",
        },
        "highsnr": {
            "lambda_primes": "(0.000727617035635667, 0.9995167179024839)",
            "theta_star": "(5, 1)",
            "zeta_star": "120.20802901107795",
            "evaluated": "64 threshold vectors",
        },
    },
    "default_static.cfg": {
        "codes": {"solve": 0, "solve-delay": 0, "sweep": 0, "stability": 0, "simulate": 0, "highsnr": 0},
        "files": {
            "comparison.csv":
                "e130dee3eef55601aee585f68c53ab7164dd25e3afe169dae182fe18d307f923",
            "policy_static_delay.txt":
                "8e5dc678c298da93c8980e71e3a83362a85dac652f018b8a88a0d0d194992d6a",
            "policy_static_mse.txt":
                "251fee7e3517099b293ec4d51436b00d1ef38af77253ce6123ea9584fbd19a4d",
            "stability.txt":
                "1472a3f4c5653a2fbec97449e2d1bef0a5ae408386684be6d419bdc971485e44",
            "sweep.csv":
                "dfae21c3d00ff7d4f7e01e21092f11202d310db8a8180691a36b2a3829258ed7",
            "trace_psi_rep0.csv":
                "3080b00a2fa54f7e7ede0f8b96cc9ca7d45f96f66aa94903242d2e9deccd12f3",
            "trajectory_psi.csv":
                "40e38e6e7295394d053d15024347835272e1832909d59f7637ef2eaaa212d9f2",
        },
        "highsnr": {
            "lambda_prime": "0.000727617035635667",
            "theta_star": "4",
        },
    },
    "demo_markov_7db.cfg": {
        "codes": {"solve": 0, "solve-delay": 0, "sweep": 0, "stability": 0, "simulate": 0, "highsnr": 0},
        "files": {
            "comparison.csv":
                "5701d0bee1644105dee7ff09809ffd7400969cdcea2a5716a50a474e7284ed0a",
            "policy_markov_delay.txt":
                "1f50d58a8d22a2ae6d9fb7e7a23b1fbf17a450562000e8010785d9aa35b48e4f",
            "policy_markov_mse.txt":
                "a04fbb1249c71553f6b309a34039b134f4a2685108be1736c6cb048f9f89292a",
            "stability.txt":
                "5a6a39847f9218f8dd672c813a363fa82c154387ed886ea77cca2f5d93bcd50d",
            "stability_region.csv":
                "08087fb97fb1398d1e5ab671bcc6abfe1c2d35467672352646f0dac066c0fcef",
            "sweep.csv":
                "510398f59c6883b5e30652c94c75ca2437b8548d05f6ff5c7bf500a4ee10decf",
            "trace_psi_rep0.csv":
                "585b96fa2c0123a530b10efe2900aeb6296ca17e77b96c2afa6cc762e0a58424",
            "trajectory_psi.csv":
                "5b3a851dd7068d082a2fada9d82fc483c4ac802f9b16dc01ee683ec8148a3aa5",
        },
        # The weak state's fresh error is exactly 1; retransmissions deliver.
        "highsnr": {
            "lambda_primes": "(0.9994779600597551, 1.0)",
            "theta_star": "(1, 1)",
            "zeta_star": "281.6541984239838",
            "evaluated": "64 threshold vectors",
        },
    },
    "demo_static_8db.cfg": {
        "codes": {"solve": 0, "solve-delay": 0, "sweep": 0, "stability": 0, "simulate": 0, "highsnr": 0},
        "files": {
            "comparison.csv":
                "d40a3b64a7f662934559d28fb076dc6d5430b30fdf34733720ec0e38893335ce",
            "policy_static_delay.txt":
                "9c84603d20b8996963e6b5e0d407ed904198cb8449142b645e871111695ed6d6",
            "policy_static_mse.txt":
                "b001d3c10ec4b99baa63cfa31ab3dfe789e58b6e8769ed980ab830d5fa04a2d8",
            "stability.txt":
                "588e973115e208dd6d2fe8c15bfa861c9f1c07c722bf3033d68b81e52c5cb006",
            "sweep.csv":
                "dfae21c3d00ff7d4f7e01e21092f11202d310db8a8180691a36b2a3829258ed7",
            "trace_psi_rep0.csv":
                "d8a275682f222ebe090ecb1a0f87e6173141a422d62ed27857355a03f215282b",
            "trajectory_psi.csv":
                "9d2ab5e7cf479e1aff1621355b3f703b9442c98ae1d65e9173148ad0d81406cc",
        },
        "highsnr": {
            "lambda_prime": "0.8756920689124406",
            "theta_star": "1",
        },
    },
    "region_markov.cfg": {
        "codes": {"solve": 0, "solve-delay": 0, "sweep": 0, "stability": 0, "simulate": 0, "highsnr": 0},
        "files": {
            "comparison.csv":
                "8a867c2952e12189c60763bb5e0c52485353ceffe1c529dedb5595b7e0ce4b28",
            "policy_markov_delay.txt":
                "60025c1ed22215dc08e5b5a220e0d0f97352db963ebdae12f1e6671937fa36ae",
            "policy_markov_mse.txt":
                "b52c718fdf9543a587b2d4478bae1e2f7a132e3257ca9fd59949841ab0fcd42e",
            "stability.txt":
                "c3493923785bb11d997322f659b9f25554757d051f5f8246cf75151d40068d62",
            "stability_region.csv":
                "73fadf3a246760e3b6b394e0ca0a771329f73fbdc0c6ef1e2f73bb62ebf3ebe5",
            "sweep.csv":
                "986c773283766f4c42bc9df3cba300d292b1fa127ec9196cc803e068f4216998",
            "trace_psi_rep0.csv":
                "da763a1d00656944b8459bff600a25dc0ec33c8cdfb8228b776dd9bca6fef088",
            "trajectory_psi.csv":
                "ef4e53cc12688b40f922c753b65227816c45459a3395cf7dc6ef5eab3ff03446",
        },
        "highsnr": {
            "lambda_primes": "(0.000727617035635667, 0.9995167179024839)",
            "theta_star": "(5, 1)",
            "zeta_star": "54.144563169615395",
            "evaluated": "64 threshold vectors",
        },
    },
}

_NUMPY_REPR = re.compile(r"np\.float64\(([^()]*)\)")


def _digest(path: Path, out: Path) -> str:
    text = _NUMPY_REPR.sub(r"\1", path.read_text()).replace(str(out), "<out>")
    return hashlib.sha256(text.encode()).hexdigest()


def _sim_config(src: Path, dst: Path):
    text = src.read_text()
    for key, value in (("slots", 500), ("replicates", 2), ("seed", 5)):
        text = re.sub(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
    dst.write_text(text)


def run_config(name: str, work: Path) -> dict:
    """Run every call on configs/<name>; returns exit codes, file digests and
    the highsnr.txt lines (None when the call wrote no file)."""
    out = work / "out"
    sim_cfg = work / "sim.cfg"
    _sim_config(CONFIG_DIR / name, sim_cfg)
    codes = {}
    for call, argv in CALLS.items():
        cfg = sim_cfg if call == "simulate" else CONFIG_DIR / name
        codes[call] = main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
    files = {
        path.name: _digest(path, out)
        for path in sorted(out.iterdir())
        if path.name != "highsnr.txt"
    }
    highsnr_path = out / "highsnr.txt"
    highsnr = None
    if highsnr_path.exists():
        highsnr = dict(line.split(" = ", 1) for line in highsnr_path.read_text().splitlines())
    return {"codes": codes, "files": files, "highsnr": highsnr, "out": out}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run_config(name, tmp_path_factory.mktemp(name.replace(".", "_")))
        return cache[name]

    return get


def test_every_config_has_golden_values():
    assert sorted(GOLDEN) == sorted(path.name for path in CONFIG_DIR.glob("*.cfg"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exit_codes(outputs, name):
    assert outputs(name)["codes"] == GOLDEN[name]["codes"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_files_byte_identical(outputs, name):
    assert outputs(name)["files"] == GOLDEN[name]["files"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_highsnr(outputs, name):
    got, want = outputs(name)["highsnr"], GOLDEN[name]["highsnr"]
    if want is None:
        assert got is None
        return
    assert got["theta_star"] == want["theta_star"]
    if "lambda_primes" in want:  # fading link
        assert got.keys() == want.keys()
        assert got["lambda_primes"] == want["lambda_primes"]
        assert got["evaluated"] == want["evaluated"]
        assert float(got["zeta_star"]) == pytest.approx(float(want["zeta_star"]), rel=1e-12)
        return
    cfg = load_config(CONFIG_DIR / name)
    ladder = build_cost_ladder(cfg.system, solve_steady_state(cfg.system), cfg.solver.q_max + 2)
    lam = float(got["lambda_prime"])
    assert got["lambda_prime"] == want["lambda_prime"]
    assert got["zeta_star"] == got[f"zeta({got['theta_star']})"]
    thetas = [int(key[5:-1]) for key in got if key.startswith("zeta(")]
    assert thetas == list(range(1, len(thetas) + 1))
    for theta in thetas:
        closed = high_snr_zeta_static(ladder, lam, theta)
        assert float(got[f"zeta({theta})"]) == pytest.approx(closed, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_fields_are_plain_numbers(outputs, name):
    out = outputs(name)["out"]
    paths = [out / "trace_psi_rep0.csv", out / "trajectory_psi.csv"]
    if (out / "stability_region.csv").exists():
        paths.append(out / "stability_region.csv")
    for path in paths:
        lines = path.read_text().splitlines()
        for line in lines[1:]:
            if not line.startswith("#"):
                for field in line.split(","):
                    float(field)
