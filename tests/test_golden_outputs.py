"""Byte-identity guard for every CSV the CLI writes.

A 400-step config is run through `simulate`, `identify`, `estimate` with
both methods, `analyze` and `scenario`, and each CSV is compared by SHA-256
with the digest the same commands gave before the trace-path I/O rewrite
(parsed columns in, streamed lines out). The same config with current
noise (`sigma_i`) is run through `simulate` and `scenario`, which pins the
interleaved voltage and current draws of the simulator; its digests are
those of the per-sample simulator loop. A 2600-step config is run through
`simulate`, `identify`, `estimate --method ekf` and `analyze`, so that each
of their per-sample CSVs spans more than two of `write_lines`' chunks and
identify writes both empty and physical rows; its digests are those of the
line-per-write writers with an exception per unphysical RLS point. The
400-step config with `identify_online` is run through `scenario`, which
pins the RLS identifier feeding both estimators its per-step parameters;
its digests are those of the identifier with a settable configuration.
Two more `simulate` runs pin the sensor noise that `ecm.measure` adds to a
clean trace: a constant discharge with current noise that the low voltage
cutoff stops after 185 of its 3000 samples, whose noise `measure` draws
for the 185 samples kept, and a constant -0.0 A profile without current
noise, whose current is written as 0.0; their digests are those of the
simulator that drew its own noise, one row per profile sample. A change
to how a CSV is read or written that moves a single byte fails here by
file name. A change that means to alter an output must say why and
update the digest.
"""

import hashlib

import pytest

from lfpsoc.cli import main as cli_main
from lfpsoc.traceio import CHUNK_LINES

CONFIG = "profile_steps=400\nprofile_target_ah=0.06\nseed=42\n"
CURRENT_NOISE_CONFIG = CONFIG + "sigma_i=0.01\n"
IDENTIFY_ONLINE_CONFIG = CONFIG + "identify_online=true\n"
LONG_CONFIG = "profile_steps=2600\nprofile_target_ah=0.39\nseed=42\n"
CUTOFF_CONFIG = ("profile_kind=constant\nprofile_amp=2\ninitial_soc_true=0.1\n"
                 "profile_steps=3000\nsigma_i=0.01\n")
NEGATIVE_ZERO_CONFIG = ("profile_kind=constant\nprofile_amp=-0.0\n"
                        "profile_steps=100\nsigma_i=0\n")

GOLDEN = {
    "sim/trace.csv":
        "8f137e639b5c0fb032b3b931137034e218bb01b0bb4a86b16779d3c0d561b46e",
    "sim/true_curve.csv":
        "d153c5b159d7fccf2138e3db229e95201ac162140ea423f6ab42bd354a9bb40c",
    "id/identified_params.csv":
        "877f1a887c109cf0cf85f5d6adfcf4e06ce41d833e420aa277831e535cac22bb",
    "ekf/estimate_ekf.csv":
        "95b231e16479e932af01d4caddc809fe801721fc8c405d863dff6e3aedfff984",
    "ekf/soc_ekf.csv":
        "e1777abb3114caa815e3bfc0e58f6cd8930fb38dd5d71b8eca200a160142f135",
    "ammkf/soc_ammkf.csv":
        "b2e80f5dbdb19b55889435251883350c93883a0bfa46d041c62ac2785e297c4c",
    "ammkf/corrected_osc.csv":
        "9acec274f56b03ead972c35de9f4765ce106a0d1ba3e245a1dc15202c04da0d8",
    "ammkf/diagnostics.csv":
        "1be5d5075a38ff95b938a85aa02d3a591c25af4d5b94fa0a889538473980ff59",
    "an/analysis.csv":
        "149289e8aab7e7c22563a79560d2bee8cacf4b31fb8d4c89d93a2c6ae948a449",
    "scen/trace.csv":
        "8f137e639b5c0fb032b3b931137034e218bb01b0bb4a86b16779d3c0d561b46e",
    "scen/soc_ekf.csv":
        "e1777abb3114caa815e3bfc0e58f6cd8930fb38dd5d71b8eca200a160142f135",
    "scen/soc_ammkf.csv":
        "b2e80f5dbdb19b55889435251883350c93883a0bfa46d041c62ac2785e297c4c",
    "scen/corrected_osc.csv":
        "9acec274f56b03ead972c35de9f4765ce106a0d1ba3e245a1dc15202c04da0d8",
    "scen/diagnostics.csv":
        "1be5d5075a38ff95b938a85aa02d3a591c25af4d5b94fa0a889538473980ff59",
    "scen/metrics.csv":
        "a03906f269b76293c905e8a5769d2c4bf0ed976520f320f55bbd2f58eaa34b34",
    "scen/true_curve.csv":
        "d153c5b159d7fccf2138e3db229e95201ac162140ea423f6ab42bd354a9bb40c",
    "scen/filter_curve.csv":
        "a3f3c4101cd5b3d92f1fc89658c4c4ce0be666f19260739d9ab9e84340e7df89",
}

GOLDEN_CURRENT_NOISE = {
    "sim/trace.csv":
        "42586d50b26e43150ec16cdc5d09e7b770faa42033907b4b65faf160ac2506df",
    "sim/true_curve.csv":
        "d153c5b159d7fccf2138e3db229e95201ac162140ea423f6ab42bd354a9bb40c",
    "scen/trace.csv":
        "42586d50b26e43150ec16cdc5d09e7b770faa42033907b4b65faf160ac2506df",
    "scen/soc_ekf.csv":
        "90fd3a25d58fbb7b8a6b251ab4a71ddffd768409752beafc8a97047447e950b2",
    "scen/soc_ammkf.csv":
        "1445e9e01b7c9e12dd55ec709859b6ae698945ce30efd7a01da065fd0c1377a7",
    "scen/corrected_osc.csv":
        "d0c56e7ad2986c5c6c95a045c898d41ad092ef7c2e3333b1c1aefb8cab08ac2e",
    "scen/diagnostics.csv":
        "15c75cc0bb392681d53592aaa1806769857177595708f1453654b9e9c7bcf136",
    "scen/metrics.csv":
        "bb732b597c050c49157c23322fdb3894c22c25693207a394ad01ca6908f58862",
    "scen/true_curve.csv":
        "d153c5b159d7fccf2138e3db229e95201ac162140ea423f6ab42bd354a9bb40c",
    "scen/filter_curve.csv":
        "a3f3c4101cd5b3d92f1fc89658c4c4ce0be666f19260739d9ab9e84340e7df89",
}

GOLDEN_IDENTIFY_ONLINE = {
    "scen/trace.csv":
        "8f137e639b5c0fb032b3b931137034e218bb01b0bb4a86b16779d3c0d561b46e",
    "scen/soc_ekf.csv":
        "6734cbc951c4f53e5f3facc627d34081d2b9f1a0c72fb9ec09087fe72bfe2399",
    "scen/soc_ammkf.csv":
        "3036e758330b53485fc6b1acaa2dcce31c94f9d23a109aa266a08cb88ed0a8bb",
    "scen/corrected_osc.csv":
        "6c3410cfcf0faf87e07982d15a04d2a4ace86dfcceba8e35d4edcb752bbef07e",
    "scen/diagnostics.csv":
        "727bc2da8b8a2b409109a4ec7b4400b497ddceb966eadbf346c52b4f796cc75f",
    "scen/metrics.csv":
        "a5ce5cff67a8fd64ba5bfd494f3b10aeb204f9c49c2b3afe4adbf81cbc578b8c",
    "scen/true_curve.csv":
        "d153c5b159d7fccf2138e3db229e95201ac162140ea423f6ab42bd354a9bb40c",
    "scen/filter_curve.csv":
        "a3f3c4101cd5b3d92f1fc89658c4c4ce0be666f19260739d9ab9e84340e7df89",
}

GOLDEN_LONG = {
    "sim/trace.csv":
        "609ce7c87d600c1591007418f79ff3545c5c703c19be68ec5060236a349bcae8",
    "sim/true_curve.csv":
        "d153c5b159d7fccf2138e3db229e95201ac162140ea423f6ab42bd354a9bb40c",
    "id/identified_params.csv":
        "0a8fb5d1ace501fdf624fd786c785b55c4be132329c8f0af9d0033d60caa826a",
    "ekf/estimate_ekf.csv":
        "19f09ff5c842c282f53fe30d78e8e51529cdc443a19c18689ff1a2a86ac09de1",
    "ekf/soc_ekf.csv":
        "9e82f59d1a8dd1d2949b684b3c8644764d146c7ed84e5cd0d985782112969400",
    "an/analysis.csv":
        "39c1d234beb7493c446e496fa8b12b382c30816dc3697ff9e25acdcf1355383d",
}

GOLDEN_CUTOFF = {
    "sim/trace.csv":
        "c26750f9d17cf90df4ea2b80b2b095a2ca00d027244165da200a16871ba5ea88",
    "sim/true_curve.csv":
        "d153c5b159d7fccf2138e3db229e95201ac162140ea423f6ab42bd354a9bb40c",
}

GOLDEN_NEGATIVE_ZERO = {
    "sim/trace.csv":
        "330bd18c78b25520a99c939a518ce2c307925370514f7d4a9db3fd84ed2ba878",
    "sim/true_curve.csv":
        "d153c5b159d7fccf2138e3db229e95201ac162140ea423f6ab42bd354a9bb40c",
}


def run_commands(root, config=CONFIG, names=None) -> dict:
    """Run every CSV-writing command (or those whose output directory is in
    `names`) once under `root` with `config` and return the SHA-256 of each
    CSV, keyed by its path relative to `root`."""
    cfg = root / "cfg.txt"
    cfg.write_text(config)
    trace = str(root / "sim" / "trace.csv")
    commands = [("sim", ["simulate"]),
                ("id", ["identify", "--trace", trace]),
                ("ekf", ["estimate", "--trace", trace, "--method", "ekf"]),
                ("ammkf", ["estimate", "--trace", trace, "--method", "ammkf"]),
                ("an", ["analyze", "--trace", trace]),
                ("scen", ["scenario"])]
    for out, args in commands:
        if names is not None and out not in names:
            continue
        code = cli_main(["--config", str(cfg), "--out", str(root / out),
                         *args])
        assert code == 0, (out, code)
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.glob("*/*.csv"))}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def current_noise_digests(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("golden-sigma-i"),
                        CURRENT_NOISE_CONFIG, ("sim", "scen"))


@pytest.fixture(scope="module")
def identify_online_digests(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("golden-identify-online"),
                        IDENTIFY_ONLINE_CONFIG, ("scen",))


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-long")
    return root, run_commands(root, LONG_CONFIG, ("sim", "id", "ekf", "an"))


@pytest.fixture(scope="module")
def cutoff_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-cutoff")
    return root, run_commands(root, CUTOFF_CONFIG, ("sim",))


@pytest.fixture(scope="module")
def negative_zero_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-negative-zero")
    return root, run_commands(root, NEGATIVE_ZERO_CONFIG, ("sim",))


def test_every_csv_is_covered(digests, current_noise_digests,
                              identify_online_digests, long_run, cutoff_run,
                              negative_zero_run):
    assert sorted(digests) == sorted(GOLDEN)
    assert sorted(current_noise_digests) == sorted(GOLDEN_CURRENT_NOISE)
    assert sorted(identify_online_digests) == sorted(GOLDEN_IDENTIFY_ONLINE)
    assert sorted(long_run[1]) == sorted(GOLDEN_LONG)
    assert sorted(cutoff_run[1]) == sorted(GOLDEN_CUTOFF)
    assert sorted(negative_zero_run[1]) == sorted(GOLDEN_NEGATIVE_ZERO)


def test_noise_runs_are_what_their_names_say(cutoff_run, negative_zero_run):
    rows = (cutoff_run[0] / "sim/trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 185  # the cutoff stops 3000 samples at 185
    rows = (negative_zero_run[0] / "sim/trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 100
    assert {row.split(",")[1] for row in rows} == {"0.0"}


def test_long_trace_spans_chunks_and_both_identify_rows(long_run):
    root = long_run[0]
    for name in ("sim/trace.csv", "id/identified_params.csv",
                 "ekf/estimate_ekf.csv", "ekf/soc_ekf.csv"):
        lines = (root / name).read_text().splitlines()
        assert len(lines) - 1 > 2 * CHUNK_LINES, name
    rows = (root / "id/identified_params.csv").read_text().splitlines()[1:]
    empty = [row.split(",")[1] == "" for row in rows]
    assert any(empty) and not all(empty)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_bytes_unchanged(digests, name):
    assert digests.get(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CURRENT_NOISE))
def test_csv_bytes_unchanged_with_current_noise(current_noise_digests, name):
    assert current_noise_digests.get(name) == GOLDEN_CURRENT_NOISE[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_IDENTIFY_ONLINE))
def test_csv_bytes_unchanged_with_identify_online(identify_online_digests,
                                                  name):
    assert identify_online_digests.get(name) == GOLDEN_IDENTIFY_ONLINE[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_LONG))
def test_long_trace_csv_bytes_unchanged(long_run, name):
    assert long_run[1].get(name) == GOLDEN_LONG[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CUTOFF))
def test_cutoff_trace_csv_bytes_unchanged(cutoff_run, name):
    assert cutoff_run[1].get(name) == GOLDEN_CUTOFF[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_NEGATIVE_ZERO))
def test_negative_zero_current_csv_bytes_unchanged(negative_zero_run, name):
    assert negative_zero_run[1].get(name) == GOLDEN_NEGATIVE_ZERO[name]
