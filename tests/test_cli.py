"""Command-line contract: exit codes, report schema, determinism, config."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zaklab import cli
from zaklab import grids as G
from zaklab import kernels as K


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestAdmissibleCommand:
    def test_classical_corner_exits_zero(self, capsys):
        code, out = run(capsys, "admissible", "--k", "0", "--l", "-1/2",
                        "--p", "2", "--b", "11/20", "--b1", "11/20")
        assert code == 0
        assert "admissible" in out

    def test_boundary_b_rejected(self, capsys):
        code, out = run(capsys, "admissible", "--k", "0", "--l", "-1/2",
                        "--p", "2", "--b", "1/2", "--b1", "1/2")
        assert code == 1
        assert "rejected" in out and "1/p" in out

    def test_boundary_optimal_point_not_admissible(self, capsys):
        code, out = run(capsys, "admissible", "--k", "-1/12", "--l", "-7/12",
                        "--p", "12/7", "--b", "3/4", "--b1", "3/4")
        assert code == 1
        assert "k-l < 2(1-b1)" in out and "2k > 1/p-b1" in out

    def test_decimal_literal_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["admissible", "--k", "0", "--l", "-0.5", "--p", "2",
                      "--b", "11/20", "--b1", "11/20"])
        assert info.value.code == 2

    def test_json_report_schema(self, capsys):
        code, doc = run_json(capsys, "admissible", "--k", "0", "--l", "-1/2",
                             "--p", "2", "--b", "11/20", "--b1", "11/20")
        assert code == 0
        assert set(doc) == {"command", "config", "payload", "timing_s", "version"}
        assert doc["payload"]["admissible"] is True
        assert doc["config"]["b"] == "11/20"

    def test_negative_rationals_parse_with_argparse_defaults(self, capsys,
                                                             monkeypatch):
        # bare negative values must not rest on argparse's private
        # _negative_number_matcher, whose default rejects -7/12
        default = argparse.ArgumentParser()._negative_number_matcher
        build = cli.build_parser

        def with_default_matcher():
            parser, submap = build()
            for p in (parser, *submap.values()):
                p._negative_number_matcher = default
            return parser, submap

        monkeypatch.setattr(cli, "build_parser", with_default_matcher)
        code, doc = run_json(capsys, "admissible", "--k", "-11/150", "--l", "-7/12",
                             "--p", "12/7", "--b", "59/80", "--b1", "59/80")
        assert code == 0
        assert (doc["config"]["k"], doc["config"]["l"]) == ("-11/150", "-7/12")


class TestOptimizeCommand:
    def test_global_optimum_values(self, capsys):
        code, doc = run_json(capsys, "optimize")
        assert code == 0
        pl = doc["payload"]
        assert (pl["p_star"], pl["l_star"], pl["k_inf"]) == ("12/7", "-7/12", "-1/12")
        assert pl["ceiling_b1"] == "3/4"
        assert (pl["sigma"], pl["lambda"]) == ("-1/6", "-2/3")
        assert pl["bounds_coincide"] is True

    def test_minimal_k_mode(self, capsys):
        code, doc = run_json(capsys, "optimize", "--l", "-1/2", "--fixed-p", "2")
        assert code == 0
        assert doc["payload"]["k_inf"] == "0"
        assert doc["payload"]["attained"] is True

    def test_payload_deterministic(self, capsys):
        _, doc1 = run_json(capsys, "optimize")
        _, doc2 = run_json(capsys, "optimize")
        assert json.dumps(doc1["payload"], sort_keys=True) == json.dumps(
            doc2["payload"], sort_keys=True
        )


class TestWindowAndScaling:
    def test_window_reports_ceiling(self, capsys):
        code, doc = run_json(capsys, "window", "--k", "0", "--l", "-1/2", "--p", "2")
        assert code == 0
        assert doc["payload"]["diagonal"]["ceiling_b1"] == "3/4"
        assert doc["payload"]["diagonal"]["nonempty"] is True

    def test_scaling_triple(self, capsys):
        code, doc = run_json(capsys, "scaling", "--k", "0", "--l", "-2/3",
                             "--p", "3/2")
        assert code == 0
        assert doc["payload"] == {"sigma": "-1/6", "lambda": "-5/6"}


class TestKernelScanCommand:
    def test_quick_tier_completes_fast(self, capsys):
        t0 = time.time()
        code, out = run(capsys, "kernel-scan", "--k", "0", "--l", "-1/2",
                        "--p", "2", "--tier", "quick")
        elapsed = time.time() - t0
        assert elapsed < 60.0
        # quick tier is a smoke tier: inconclusive exits 2 with guidance
        assert code in (0, 2)
        if code == 2:
            assert "raise the tier" in out

    def test_violate_flag_diverges(self, capsys):
        code, doc = run_json(capsys, "kernel-scan", "--k", "0", "--l", "-1/2",
                             "--p", "2", "--tier", "quick", "--family", "S",
                             "--sign", "minus", "--violate", "l")
        diag = doc["payload"]["diagnostics"]["S/minus"]
        assert diag["verdict"] == "diverging"
        assert code == 1

    def test_rejects_empty_window(self, capsys):
        code = cli.main(["kernel-scan", "--k", "0", "--l", "-2/3", "--p", "3/2",
                         "--tier", "quick"])
        assert code == 1
        assert capsys.readouterr() == (
            "", "rejected (empty b window at (k, l, p) = (0, -2/3, 3/2))\n")
        # a point outside the domain is rejected the same way
        code = cli.main(["kernel-scan", "--k", "0", "--l", "-1/2", "--p", "3"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "") and err.startswith("rejected (p must satisfy")

    def test_one_scan_per_family_serves_both_signs(self, capsys, monkeypatch):
        calls = []
        real = K.kernel_sup

        def counted(spec, *args, **kwargs):
            calls.append(spec.family)
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(K, "kernel_sup", counted)
        code, doc = run_json(capsys, "kernel-scan", "--k", "0", "--l", "-1/2",
                             "--p", "2", "--r-max", "8", "--resolution", "0.5")
        assert calls == ["S", "W"]
        cells = doc["payload"]["diagnostics"]
        assert sorted(cells) == ["S/minus", "S/plus", "W/minus", "W/plus"]
        assert cells["S/plus"] == cells["S/minus"]

    def test_rejected_ladder_builds_no_table(self, capsys, monkeypatch):
        built = []

        def builder(*args, **kwargs):
            built.append(args)
            raise AssertionError("a rejected ladder reached the sigma2 table")

        monkeypatch.setattr(K, "_complete_table", builder)
        for size in (["--tier", "quick", "--resolution", "0.3"], ["--r-max", "10"]):
            code = cli.main(["kernel-scan", "--k", "0", "--l", "-1/2", "--p", "2",
                             *size])
            err = capsys.readouterr().err
            assert (code, built) == (2, []), size
            assert err.startswith("zaklab: error: ") and len(err.splitlines()) == 1


PAYLOAD_SHA256 = {
    ("corner", "quick", "S", False): "07c4c95e170dc0277fe57a1837235c8a95e7530f44b22bceab30ebb36e505ac5",
    ("corner", "quick", "S", True): "7dc04e7f7b92a353df4c4419da7c1072c4cbf1049504f340e2a32ff8945442a7",
    ("corner", "quick", "W", False): "58d613e04cb4406390c7f3e6b1b1f8d2fcf1e49fd27333f4960184e9e946330b",
    ("corner", "quick", "W", True): "710f7f156040dd15efc2bf1502806724818780e5ef9c97be983a337016f5fb9e",
    ("corner", "r6h025", "S", False): "bba4335f4f66e67a8c67c7f6e38811ef5dd2c2c8cb1ae9f1954e749a59d3f562",
    ("corner", "r6h025", "S", True): "83718f63e5ea87ccbe5879531322c2e105bac5b5933dc45d91d4b0467685ce1f",
    ("corner", "r6h025", "W", False): "91283e8995a15acae62ce633d42254dae8dae5fca8d9abe2cd57a88d48a3f729",
    ("corner", "r6h025", "W", True): "a1653485a04b61af7e01a30153683868a92682626056eed21e8c9e60e193df4d",
    ("optimal", "quick", "S", False): "950a07b248fd875bfd1c2998f61524c4ff4d1bab70bb05f3f8a218d97111b664",
    ("optimal", "quick", "S", True): "dad6f4819ed8d390cccd94dd9765290af8ad39526adbd4fd3d9d39bae08b4dfc",
    ("optimal", "quick", "W", False): "e0e1a71addb31235d2a83633ccd585d1ece7645602948d9d970d056bb40e2c37",
    ("optimal", "quick", "W", True): "474242e47cb9bef5607fb9c42ad421545f639bb966cf690a672153cfb2116260",
    ("optimal", "r6h025", "S", False): "a7e537e0e4129fbb891cd16346e9f8cb83408bf4b4f7eca2d25a9ecb4802391d",
    ("optimal", "r6h025", "S", True): "3d00fe01f2f59ec25aeda2c7789b41747f1c06568aad6c43494cea9be26cddac",
    ("optimal", "r6h025", "W", False): "de0d69e0417fcee5d2f433892bb97e3c86cd13618c8d0910c4f9b2e5fb283d94",
    ("optimal", "r6h025", "W", True): "7fe8e66155d7ba83d285932bd2a01abcc9076d6973915be042b21ff5ffc68f45",
}
SCAN_POINTS = {"corner": ["--k", "0", "--l", "-1/2", "--p", "2"],
               "optimal": ["--k", "-11/150", "--l", "-7/12", "--p", "12/7"]}
SCAN_SIZES = {"quick": ["--tier", "quick"],
              "r6h025": ["--r-max", "6", "--resolution", "0.25"]}


@pytest.mark.parametrize("point,size,family,violate", sorted(PAYLOAD_SHA256))
def test_kernel_scan_payload_is_byte_identical(capsys, point, size, family,
                                               violate):
    """The README's byte-identity contract at the corner and the
    criterion-6 optimum: the sha256 of the sorted-key JSON payload of
    kernel-scan --sign both is pinned.  The digests were computed before
    the radius-ladder quadrature (one integrand per sigma for the whole
    ladder) replaced the scan per radius, with numpy 2.4.6 and scipy
    1.17.1; a different pow build can move last bits."""
    argv = ["kernel-scan", *SCAN_POINTS[point], *SCAN_SIZES[size],
            "--family", family, "--sign", "both"]
    _, doc = run_json(capsys, *argv, *(["--violate", "l"] if violate else []))
    text = json.dumps(doc["payload"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PAYLOAD_SHA256[
        point, size, family, violate]


CORNER, OPTIMAL = SCAN_POINTS["corner"], SCAN_POINTS["optimal"]
COMMAND_ARGV = {
    "admissible": ["admissible", *CORNER, "--b", "11/20", "--b1", "11/20"],
    "admissible-boundary": ["admissible", "--k", "-1/12", "--l", "-7/12",
                            "--p", "12/7", "--b", "3/4", "--b1", "3/4"],
    "window-corner": ["window", *CORNER],
    "window-optimal": ["window", *OPTIMAL],
    # k >= 0 branch: l >= -1/p broken, then a window whose bounds cross
    "window-empty-k0": ["window", "--k", "0", "--l", "-1", "--p", "2"],
    "window-crossed-k0": ["window", "--k", "0", "--l", "-2/3", "--p", "3/2"],
    # k < 0 branch: k >= -1/p broken
    "window-empty-kneg": ["window", "--k", "-1", "--l", "-1/2", "--p", "2"],
    # b1 >= (l+1-k)/2, inclusive, ties the exclusive type bound b1 > 1/p
    "window-tie-k0": ["window", "--k", "1/2", "--l", "1/2", "--p", "2"],
    "optimize": ["optimize"],
    "optimize-line": ["optimize", "--l", "-1/2", "--fixed-p", "2"],
    "scaling": ["scaling", *OPTIMAL],
    "trilinear-test": ["trilinear-test", "--trials", "2", "--grid", "16"],
    # a non-default eps, the slack of the dual exponents c1 = 1 - b1 - eps
    "kernel-scan-eps": ["kernel-scan", *CORNER, "--family", "W", "--sign", "plus",
                        "--tier", "quick", "--eps", "1/50"],
    "simulate": ["simulate", "--tier", "quick", "--t-final", "0.1"],
    "lipschitz": ["lipschitz", *CORNER, "--seeds", "2", "--tier", "quick",
                  "--t-final", "0.05"],
    "lifespan": ["lifespan", "--n", "128", "--dt", "1e-3", "--t-final", "0.2"],
}
COMMAND_SHA256 = {
    "admissible": (0, "977b4192bb749cbd608f783d395afd95b646f659df4302460881e91bc8db4c99",
        "33df345e9256dfde583b6676d647eecf914336719ceb36a0cbfe08f435b1bf07",
        "820b1a47a1fa53ebb59804c8be8f578759b0f46d19f84a506e9610c874ac41e5"),
    "admissible-boundary": (1, "e6c8e458a38f526ff6df218bac460a15570f4cf9b0dd1d05e74e4e94a977ba76",
        "62014cc97b7125448268669b2624bdbb32f87585ed797dc1d845db285edd7368",
        "9dff299f4168549f0ea178619d7f73e00ca57c23762de5c437d4930b7e18db9b"),
    "window-corner": (0, "8b5620f779982d308e9f33de50e49d20648cc44ab1dd44eba392124d30593387",
        "125b90838580684545d1e0575b32946b4a0fc38a30499804746acb132ce9ec86",
        "882998b98a3d803c5f0cf09b4723019dc80d1bf0663b0f93e86cadded0a6adc9"),
    "window-optimal": (0, "bcaf2c499c1d4b62df9aee37bce16f6894b199fcd5b36e756d5783217bb264da",
        "8426eb159a618f905048ffedcca7e4be635bc858c6b791f1ab154d40742e5664",
        "6272e892d6f681269008248e2d18ea06a0308d32538bdccd0f9548e3a520ae93"),
    "window-empty-k0": (0, "0e47d86fbfa9d795ddac3827a8b07ef524edac96fb1de8d0ecb4ce58820d34be",
        "8771b7c65ebce7f3a2323e7be6c612f12c153c1e34cb99491e58e6c2db0b48fa",
        "dc0069404ff922bfdf8f86379b395b82e706b2f9901fd0498bd744a008648f01"),
    "window-crossed-k0": (0, "9c3722f6b6379daeea1d90ec405dd0df68488829b9ae335365faa381214e5b7e",
        "f5305b544865fc498c8f8a4d0ac452e5c5f955d4c30bb045ac0c4fc472dbda59",
        "37483decc81c50b007402076731d2e31cb12060e99c460422f465655cbab2b71"),
    "window-empty-kneg": (0, "977fdc0873a0721d230840b91145ac44b0ac4081b0e40a8f2a33363f762f2a27",
        "ba72a1cc07658893d23ebaf2bc3647e8f934a9ea085069d3c848bc77b5717a18",
        "9c87b2d0005f9445d1aa14c4de8113ea0db49afd8fc04cdcd2475edba8910684"),
    "window-tie-k0": (0, "a20f0df38cc79cda034bac98f28ef1cdd279be18c18df24235d6ffe25a8224c6",
        "62284d32b4e862b6f206843669f087101bf9ec20c384162faded1d2e121337b0",
        "7213984b8021a95db9cfd31287a24605e64f9221320ddd459bdc9a48784607a5"),
    "optimize": (0, "dd6bc1fe6b9a81d73746dc2c58be34d615f430ad1c8ae9c41a7ed4f37ce937bb",
        "7ecafea2fd5822a8f86872e8ee7813384990c41126c2510785cb6e39cf0da341",
        "a6b2d85b9a55b6ab24b460a8e6b3332b1b3f38e8d922621e82b811dcb6ffcdbe"),
    "optimize-line": (0, "70849092cecf7942a18e6d6f7755fd1f61bcebba7c1bf865a734791c57790cbe",
        "c9ecf91d34cd7337e063e2f20320c4eccc51a21a967d048165d7732699cb13d1",
        "9c9c73853176b09095e0db409eed498174f1645768fe433654a39a4de47c3a79"),
    "scaling": (0, "62394e6c14460358feb76f661b890218fc04dd7539e4100477b4560ff7251697",
        "030012b8efdb83f8a7db29281854985e594569aaeeace08c6c0377accf241f65",
        "f1f0fd587595d174dd6a411279bf882cb205e1ebc72d77998783fad3ac8339e7"),
    "trilinear-test": (0, "9a637bf01a59fb2b9cf6be15ecc114ae60012ee31f01638ee73e467fa0aa3a5a",
        "f91b2dc46f222dba9f8d025590853915cd86c019f7eebb880884a93a5addbd4e",
        "baccf72e85761a7294d4c659f9893816a9ee43a351c4c822cf32ddaa80d1a9d1"),
    "kernel-scan-eps": (0, "2abf14fb43e0ade38bf6579ca71cf8b440933d25b30cdd2b87e58a0825e2eb3d",
        "8db80dc1c332a8311222c1564398dc5f654ac1d7246fff0d7a2ce029e16faa5e",
        "694a170773623cbabfdd1a7f5e027341b242af2138cd1cbfa8ff50193ea2121c"),
    "simulate": (0, "c56b875daf7b43eb2219a8672a356bed6a6580414ae84e1cf0dbd6a3300d44ec",
        "915caf1e94aea2fa9e4256e4830df003efbc32a418bb9516fe536bc780325590",
        "5cc237ee5dd5300f6aa1bb1c2e8aa861bacda84d7a5e40843a48cc8a12606fa1"),
    "lipschitz": (0, "fc3e78509c9466761d813b789a18fc2c938f2a9505fd85faeb8eeaa4025d2702",
        "5427017d7682c8672b0fc885fae1a69f5c2b26a1bcef2a109915a75a14cd6075",
        "dc28c99645e300e6d2a6288d4ede3d137ffb99b51f33e6804d1f012901294a77"),
    "lifespan": (0, "5cdf955a835cd19ff7e8110d1faac352e4a0b97dd8eed9384d4441ed6425421b",
        "03955f878c1252cf2eaf26742fdfe872aecf5102311c85ad34ff849f36f5aafe",
        "23631c1c983a6d15c12f513ba65229c003c8c58693a843e4e0b864bec967d4c6"),
}


@pytest.mark.parametrize("name", sorted(COMMAND_ARGV))
def test_command_payload_is_byte_identical(capsys, name):
    """The byte-identity contract for every command but kernel-scan, at small
    settings: the exit code, then the sha256 of the sorted-key JSON payload,
    of the whole --json report without timing_s, and of the text output.
    The payload digests were pinned before the b-window solvers were folded
    into one; the report and text digests before the commands were made to
    return their reports to main(), ahead of any source edit for it; the
    kernel-scan-eps digests before --eps was required to be positive; the
    simulate and lipschitz report digests when their configs gained
    sample_stride, which left their payload and text digests as they were.  All
    were taken with numpy 2.4.6 and scipy 1.17.1 (the solver payloads hold
    floats, whose last bits a different build can move)."""
    code, doc = run_json(capsys, *COMMAND_ARGV[name])
    del doc["timing_s"]
    text_code, text = run(capsys, *COMMAND_ARGV[name])
    assert text_code == code
    digests = tuple(hashlib.sha256(t.encode()).hexdigest() for t in (
        json.dumps(doc["payload"], sort_keys=True), json.dumps(doc, sort_keys=True), text))
    assert (code, *digests) == COMMAND_SHA256[name]


class TestTrilinearCommand:
    def test_no_violations_exit_zero(self, capsys):
        code, doc = run_json(capsys, "trilinear-test", "--tier", "quick",
                             "--grid", "32", "--trials", "10")
        assert code == 0
        assert doc["payload"]["violations"] == []
        assert doc["payload"]["worst_ratio"] <= 1.0 + 1e-6


class TestSimulateCommand:
    def test_plane_wave_preset_matches_closed_form(self, capsys, tmp_path):
        csv_path = tmp_path / "series.csv"
        code, doc = run_json(capsys, "simulate", "--preset", "plane-wave",
                             "--csv-out", str(csv_path))
        assert code == 0
        assert doc["payload"]["plane_wave_error"] < 1e-8
        assert doc["payload"]["mass_drift"] < 1e-8
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("t,")

    def test_snapshot_round_trips(self, capsys, tmp_path):
        snap = tmp_path / "final.grid"
        code, _ = run_json(capsys, "simulate", "--preset", "gaussian",
                           "--t-final", "0.1", "--n", "128",
                           "--snapshot-out", str(snap))
        assert code == 0
        gf = G.load_grid(snap)
        assert gf.dims == 1 and gf.shape == (128,)

    def test_trace_jsonl_per_sample(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, _ = run_json(capsys, "simulate", "--preset", "gaussian",
                           "--t-final", "0.1", "--n", "128",
                           "--trace-out", str(trace))
        assert code == 0
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(rows) >= 2
        assert {"t", "mass", "sup_u", "truncated"} <= set(rows[0])
        assert rows[0]["t"] == 0.0


@pytest.mark.parametrize("argv", [
    ["simulate", "--tier", "quick", "--t-final", "0.1"],
    ["lipschitz", "--k", "0", "--l", "-1/2", "--p", "2", "--seeds", "1",
     "--tier", "quick", "--n", "64", "--t-final", "0.05"],
])
def test_sample_stride_is_in_the_config(capsys, argv):
    # the stride sets which steps are sampled, so the report must record it
    configs = [run_json(capsys, *argv, "--sample-stride", stride)[1]["config"]
               for stride in ("5", "25")]
    assert [c["sample_stride"] for c in configs] == [5, 25]
    assert {**configs[0], "sample_stride": 25} == configs[1]


class TestLipschitzCommand:
    def test_ratio_table_and_determinism(self, capsys):
        args = ["lipschitz", "--k", "0", "--l", "-1/2", "--p", "2",
                "--seeds", "2", "--n", "128", "--t-final", "0.1"]
        code1, doc1 = run_json(capsys, *args)
        code2, doc2 = run_json(capsys, *args)
        assert code1 == code2 == 0
        assert json.dumps(doc1["payload"], sort_keys=True) == json.dumps(
            doc2["payload"], sort_keys=True
        )
        assert set(doc1["payload"]["ratios"]) == {"1", "2"}


class TestLifespanCommand:
    def test_slope_report(self, capsys):
        code, doc = run_json(capsys, "lifespan", "--mu", "1,2", "--n", "256",
                             "--dt", "0.0002")
        assert code == 0
        assert doc["payload"]["reference_slope"] == -2.0
        assert doc["payload"]["slope"] is not None


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "100"],
    ["simulate", "--dt", "0"],
    ["simulate", "--sample-stride", "0"],
    ["kernel-scan", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick",
     "--resolution", "0"],
    ["kernel-scan", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick",
     "--resolution", "-0.5"],
    ["lipschitz", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick",
     "--seeds", "0"],
    ["lipschitz", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick",
     "--amplitude", "nan"],
    ["lipschitz", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick",
     "--deltas", "1e-2,inf"],
    ["simulate", "--tier", "quick", "--amplitude", "inf"],
    ["simulate", "--tier", "quick", "--box", "nan"],
    ["simulate", "--tier", "quick", "--t-final", "nan"],
    ["simulate", "--tier", "quick", "--dt", "inf"],
    ["lifespan", "--mu", "1,inf", "--n", "64", "--t-final", "0.01"],
    ["lifespan", "--amplitude", "nan", "--n", "64", "--t-final", "0.01"],
    ["kernel-scan", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick",
     "--r-max", "nan"],
    # each family breaks its own l condition, so --violate l takes one
    ["kernel-scan", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick",
     "--violate", "l"],
    # no trial certifies nothing
    ["trilinear-test", "--trials", "0"],
    ["trilinear-test", "--trials", "-3"],
    ["trilinear-test", "--grid", "-4"],
    ["trilinear-test", "--seed", "-1"],
    # a ParamDomainError and a GridError from the library
    ["window", "--k", "0", "--l", "-1/2", "--p", "3"],
    ["trilinear-test", "--trials", "1", "--grid", "3"],
    # only kernel-scan, trilinear-test, simulate and lipschitz take --tier
    ["admissible", "--k", "0", "--l", "-1/2", "--p", "2", "--b", "11/20",
     "--b1", "11/20", "--tier", "quick"],
    ["window", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick"],
    ["optimize", "--tier", "quick"],
    # optimize takes the line (l, p) whole or not at all
    ["optimize", "--fixed-p", "2"],
    ["optimize", "--l", "-3/4"],
    ["scaling", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick"],
    ["lifespan", "--tier", "quick"],
    # the lifespan probe observes every step, so it takes no stride
    ["lifespan", "--sample-stride", "5"],
    # eps is the open slack of the dual exponents: it must be positive
    ["kernel-scan", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick",
     "--eps", "0"],
    ["kernel-scan", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick",
     "--eps", "-1"],
    # the quadrature nodes live on the dyadic lattice of the step: a step
    # that is not a power of two, and a ladder whose y range [1, (R/8)^2]
    # ends off the lattice (R = 10 at the standard step 0.25)
    ["kernel-scan", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick",
     "--resolution", "0.3"],
    ["kernel-scan", "--k", "0", "--l", "-1/2", "--p", "2", "--r-max", "10"],
    # a dilation factor that is not positive is a GridError, before any box
    # L/mu is formed, whichever place it has in --mu
    ["lifespan", "--mu", "1,0", "--n", "64", "--t-final", "0.01"],
    ["lifespan", "--mu", "2,-1", "--n", "64", "--t-final", "0.01"],
    # lipschitz takes p in (1, 2] like every other command, and some delta
    # other than the zero sentinel, whose ratio is never measured
    ["lipschitz", "--k", "0", "--l", "-1/2", "--p", "1", "--tier", "quick"],
    ["lipschitz", "--k", "0", "--l", "-1/2", "--p", "3", "--tier", "quick"],
    ["lipschitz", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick",
     "--deltas", "0"],
    ["lipschitz", "--k", "0", "--l", "-1/2", "--p", "2", "--tier", "quick",
     "--deltas", "0,-0"],
])
def test_bad_input_is_one_stderr_line_and_exit_2(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err


SMALL_SOLVER = ["--tier", "quick", "--n", "64", "--t-final", "0.02"]
WRITERS = {
    "optimize --jsonl-out": ["optimize", "--jsonl-out"],
    "simulate --csv-out": ["simulate", *SMALL_SOLVER, "--csv-out"],
    "simulate --trace-out": ["simulate", *SMALL_SOLVER, "--trace-out"],
    "simulate --snapshot-out": ["simulate", *SMALL_SOLVER, "--snapshot-out"],
    "lipschitz --csv-out": ["lipschitz", "--k", "0", "--l", "-1/2", "--p", "2",
                            "--seeds", "1", *SMALL_SOLVER, "--csv-out"],
    "lifespan --csv-out": ["lifespan", "--mu", "1,2", "--n", "64", "--dt", "1e-3",
                           "--t-final", "0.02", "--csv-out"],
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_unwritable_output_is_one_stderr_line_and_exit_2(capsys, tmp_path, writer):
    code = cli.main([*WRITERS[writer], str(tmp_path / "missing" / "out")])
    out, err = capsys.readouterr()
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("zaklab: error:")
    assert out == ""


@pytest.mark.parametrize("argv,key,value", [
    (["simulate", *SMALL_SOLVER, "--amplitude", "-1e-2"], "amplitude", -0.01),
    (["lipschitz", "--k", "0", "--l", "-1/2", "--p", "2", "--seeds", "1",
      *SMALL_SOLVER, "--deltas", "-1e-2,1e-3"], "deltas", [-0.01, 0.001]),
])
def test_negative_values_with_an_exponent_parse(capsys, argv, key, value):
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["config"][key] == value


class TestConfigFile:
    def test_key_value_defaults_and_flag_override(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("l = -1/2\nfixed_p = 2\n")
        code, doc = run_json(capsys, "--config", str(conf), "optimize")
        assert code == 0
        assert doc["payload"]["k_inf"] == "0"
        # explicit flag wins over the file
        code, doc = run_json(capsys, "--config", str(conf), "optimize",
                             "--l", "-7/12", "--fixed-p", "12/7")
        assert doc["payload"]["k_inf"] == "-1/12"

    def test_config_with_half_an_optimize_line_is_a_usage_error(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("l = -3/4\n")
        assert cli.main(["--config", str(conf), "optimize"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1

    def test_joined_config_path(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("l = -1/2\nfixed_p = 2\n")
        code, doc = run_json(capsys, f"--config={conf}", "optimize")
        assert code == 0 and doc["payload"]["k_inf"] == "0"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in self.ADMISSIBLE.items()))
        code, doc = run_json(capsys, f"--config={conf}", "admissible")
        assert code == 0 and doc["config"] == self.ADMISSIBLE

    def test_json_config(self, capsys, tmp_path):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"l": "-1/2", "fixed_p": "2"}))
        code, doc = run_json(capsys, "--config", str(conf), "optimize")
        assert code == 0
        assert doc["payload"]["k_inf"] == "0"

    ADMISSIBLE = {"k": "0", "l": "-1/2", "p": "2", "b": "11/20", "b1": "11/20"}

    @pytest.mark.parametrize("fmt", ["json", "key=value"])
    def test_config_supplies_required_flags(self, capsys, tmp_path, fmt):
        conf = tmp_path / "point.conf"
        if fmt == "json":
            conf.write_text(json.dumps({**self.ADMISSIBLE, "k": 0, "p": 2}))
        else:
            conf.write_text("".join(f"{k} = {v}\n" for k, v in self.ADMISSIBLE.items()))
        code, doc = run_json(capsys, "--config", str(conf), "admissible")
        assert code == 0
        assert doc["config"] == self.ADMISSIBLE
        # an explicit flag wins over a required key from the file
        code, doc = run_json(capsys, "--config", str(conf), "admissible", "--b", "1/2")
        assert code == 1 and "rejected" in doc["payload"]
        # keys the subcommand does not take are left out
        code, doc = run_json(capsys, "--config", str(conf), "window")
        assert code == 0 and doc["config"] == {"k": "0", "l": "-1/2", "p": "2"}

    def test_config_values_are_parsed_like_flags(self, capsys, tmp_path):
        conf = tmp_path / "point.json"
        conf.write_text(json.dumps({**self.ADMISSIBLE, "l": -0.5}))
        with pytest.raises(SystemExit) as info:
            cli.main(["--config", str(conf), "admissible"])
        assert info.value.code == 2
        assert "not exact" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [None, "k 0\n"])
    def test_unreadable_config_is_one_stderr_line(self, capsys, tmp_path, text):
        conf = tmp_path / "point.conf"
        if text is not None:
            conf.write_text(text)
        with pytest.raises(SystemExit) as info:
            cli.main(["--config", str(conf), "window"])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert len(err.splitlines()) == 1 and "--config" in err

    def test_jsonl_output(self, capsys, tmp_path):
        out = tmp_path / "reports.jsonl"
        run(capsys, "optimize", "--jsonl-out", str(out))
        run(capsys, "optimize", "--jsonl-out", str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        docs = [json.loads(line) for line in lines]
        assert docs[0]["payload"] == docs[1]["payload"]


def test_importing_the_cli_leaves_scipy_signal_out():
    # scipy.signal loads scipy.stats, about 1 s of every command's start-up
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys, zaklab.cli; sys.exit('scipy.signal' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0


# Run one command line in a fresh interpreter and print its exit code and
# the scipy and numeric modules it loaded, on import and after the command.
NUMERIC_LAYERS = ["numpy", "zaklab.grids", "zaklab.kernels", "zaklab.solver"]
FOOTPRINT_PROBE = """import contextlib, io, json, sys
from zaklab import cli
NUMERIC = %r
def loaded():
    return {"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
            "numeric": [m for m in NUMERIC if m in sys.modules]}
on_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "on_import": on_import, **loaded()}))
""" % NUMERIC_LAYERS
TINY_RUN = ["--n", "64", "--t-final", "0.01"]


def footprint(argv):
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBE, *argv], timeout=120,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("argv, loads_scipy", [
    (["--version"], False),
    (["admissible", *CORNER, "--b", "11/20", "--b1", "11/20"], False),
    (["trilinear-test", "--trials", "1", "--grid", "8"], False),
    (["simulate", "--n", "64", "--t-final", "0.01"], False),
    # the one command that calls scipy, so the deferred import is exercised
    (["kernel-scan", *CORNER, "--tier", "quick", "--r-max", "8", "--resolution",
      "0.5", "--family", "S", "--sign", "plus"], True),
])
def test_only_kernel_scan_loads_scipy(argv, loads_scipy):
    probe = footprint(argv)
    if loads_scipy:
        # the scan reaches its quadrature (exit 2 at this small a radius)
        assert "scipy.special" in probe["scipy"]
    else:
        assert (probe["code"], probe["scipy"]) == (0, [])


@pytest.mark.parametrize("argv, code, loads_numeric", [
    pytest.param(["--version"], 0, False, id="version"),
    pytest.param(["--help"], 0, False, id="help"),
    pytest.param(["simulate", "--n", "x"], 2, False, id="usage-error"),
    pytest.param(COMMAND_ARGV["admissible"], 0, False, id="admissible"),
    pytest.param(["window", *CORNER], 0, False, id="window"),
    pytest.param(["optimize"], 0, False, id="optimize"),
    pytest.param(["scaling", *CORNER], 0, False, id="scaling"),
    pytest.param(["trilinear-test", "--trials", "1", "--grid", "8"], 0, True,
                 id="trilinear-test"),
    pytest.param(["simulate", *TINY_RUN], 0, True, id="simulate"),
    pytest.param(["lipschitz", *CORNER, *TINY_RUN, "--seeds", "1"], 0, True,
                 id="lipschitz"),
    pytest.param(["lifespan", *TINY_RUN, "--dt", "1e-3"], 0, True, id="lifespan"),
    pytest.param(["kernel-scan", *CORNER, "--tier", "quick", "--r-max", "8",
                  "--resolution", "0.5", "--family", "S", "--sign", "plus"],
                 2, True, id="kernel-scan"),
])
def test_only_numeric_commands_load_numpy(argv, code, loads_numeric):
    # importing cli loads no numpy; only the numeric commands load it, and
    # they load every numeric layer, which keeps zakbench's traced metric set
    probe = footprint(argv)
    assert probe["code"] == code
    assert probe["on_import"] == {"scipy": [], "numeric": []}
    assert probe["numeric"] == (NUMERIC_LAYERS if loads_numeric else [])


POINT = ["--k", "0", "--l", "-1/2", "--p", "2"]
FUZZ_COMMANDS = {"admissible": POINT + ["--b", "11/20", "--b1", "11/20"],
                 "window": POINT, "scaling": POINT, "optimize": [],
                 "--version": []}
FUZZ_FLAGS = ["--k", "--l", "--p", "--b", "--b1", "--fixed-p", "--tier",
              "--json", "--config"]
FUZZ_VALUES = ["0", "2", "-1/2", "11/20", "3/4", "12/7", "-7/12", "-1/12",
               "0/5", "nan", "inf", "-inf", "1/0", "1e400", "0.5", "", " ",
               "x", "quick", "--", "no-such-dir/zaklab.conf"]
FUZZ_TOKENS = FUZZ_FLAGS + FUZZ_VALUES
# a valid command line (or none), later flags overriding its values, and
# stray tokens before and after the subcommand
FUZZ_ARGV = st.tuples(
    st.lists(st.sampled_from(FUZZ_TOKENS), max_size=2),
    st.sampled_from(sorted(FUZZ_COMMANDS)),
    st.booleans(),
    st.lists(st.tuples(st.sampled_from(FUZZ_FLAGS),
                       st.sampled_from(FUZZ_VALUES)), max_size=4),
    st.lists(st.sampled_from(FUZZ_TOKENS), max_size=2),
).map(lambda t: [*t[0], t[1], *(FUZZ_COMMANDS[t[1]] if t[2] else []),
                 *(tok for pair in t[3] for tok in pair), *t[4]])


@settings(max_examples=150, deadline=None)
@given(argv=FUZZ_ARGV)
def test_fuzzed_argv_exits_0_1_or_2(argv):
    # only the exact-algebra commands: kernel-scan and the solver commands
    # run for seconds per call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


CONFIG_KEYS = ["k", "l", "p", "b", "b1", "fixed_p", "fixed-p", "tier", "json",
               "config", "no_such_key", ""]
CONFIG_VALUES = st.one_of(
    st.sampled_from(FUZZ_VALUES), st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(), st.lists(st.sampled_from(FUZZ_VALUES), max_size=3),
)
CONFIG_ENTRIES = st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES),
                          max_size=6)
# a JSON object, key=value lines, or any text
CONFIG_TEXT = st.one_of(
    CONFIG_ENTRIES.map(lambda kv: json.dumps(dict(kv))),
    CONFIG_ENTRIES.map(lambda kv: "".join(f"{k} = {v}\n" for k, v in kv)),
    st.text(max_size=40),
)


@settings(max_examples=150, deadline=None)
@given(text=CONFIG_TEXT, command=st.sampled_from(["admissible", "window", "scaling",
                                                  "optimize"]),
       joined=st.booleans())
def test_fuzzed_config_file_exits_0_1_or_2(tmp_path_factory, text, command, joined):
    conf = tmp_path_factory.mktemp("config") / "run.conf"
    conf.write_text(text, encoding="utf-8")
    argv = [f"--config={conf}"] if joined else ["--config", str(conf)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, command])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (text, argv, code)
    assert "Traceback" not in err.getvalue()

