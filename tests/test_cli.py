import ast
import dataclasses
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import grainlab
from grainlab.channel import ChannelSpec, make_rng, simulate_grains
from grainlab.cli import main
from grainlab.config import Caps, caps_override, get_caps, parse_cap_string
from grainlab.errors import PreconditionError
from grainlab.model import Word

ROOT = Path(__file__).resolve().parent.parent
# the directory holding the imported grainlab package, for subprocesses
PACKAGE_PATH = str(Path(grainlab.__file__).resolve().parent.parent)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_phi_example(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--x", "01", "--t", "1")
        assert code == 0
        assert out.strip() == "01 00"

    def test_phi_single_pattern(self, capsys):
        code, out, _ = run_cli(
            capsys, "phi", "--x", "100001000010000", "--e", "15:4,7,9,14"
        )
        assert code == 0
        assert out.strip() == "100001100010000"

    def test_phi_image_order_t2(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--x", "01101001", "--t", "2")
        assert code == 0
        assert out == (
            "01101001 00101001 00111001 00100001 00101101 00101000 01111001 "
            "01111101 01111000 01100001 01100000 01101101 01101100 01101000\n"
        )

    def test_phi_needs_t_or_e(self, capsys):
        code, _, err = run_cli(capsys, "phi", "--x", "01")
        assert code == 2 and "error:" in err

    def test_confusable(self, capsys):
        code, out, _ = run_cli(capsys, "confusable", "--x1", "01", "--x2", "00", "--t", "1")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run_cli(capsys, "confusable", "--x1", "00", "--x2", "11", "--t", "2")
        assert code == 0 and out.strip() == "false"

    @pytest.mark.parametrize(
        "m,status,message",
        [(4, 0, ""), (5, 3, "error: n-m=27 exceeds greedy_code_n=20\n"),
         (6, 2, "error: n=64: 2^64 words do not fit the 63-bit kernels\n")],
    )
    def test_hamming_prefix_exits_at_the_default_caps(self, capsys, m, status, message):
        code, out, err = run_cli(capsys, "construct", "--kind", "hamming-prefix", "--m", str(m))
        assert code == status and err == message
        assert len(out.splitlines()) == (4096 if status == 0 else 0)

    def test_mnt(self, capsys):
        code, out, _ = run_cli(capsys, "mnt", "--n", "4", "--t", "1")
        assert code == 0
        assert "= 6" in out and "exact" in out
        assert "witness:" in out

    def test_mnt_timeout_exits_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "mnt", "--n", "8", "--t", "1", "--time-limit", "1e-9"
        )
        assert code == 3
        assert "lower-bound" in out

    def test_zero_error(self, capsys):
        code, out, _ = run_cli(capsys, "zero-error", "--n", "7")
        assert code == 0 and out.strip() == "3/7"
        code, out, _ = run_cli(capsys, "zero-error", "--n", "7", "--u0", "1")
        assert out.strip() == "4/7"

    def test_sir_output(self, capsys):
        code, out, _ = run_cli(capsys, "sir", "--p", "1", "--J", "15")
        assert code == 0
        fields = dict(
            parts
            for line in out.strip().splitlines()
            if len(parts := line.split(" = ")) == 2
        )
        assert float(fields["capacity_lower"]) == 0.5
        assert float(fields["capacity_upper"]) == 0.5
        assert float(fields["error_bound"]) <= 0.004
        assert float(fields["sir"]) < 0.5
        assert "not a valid grains-channel bound" in out


class TestCsvCommands:
    def test_clique_table_csv(self, capsys):
        code, out, _ = run_cli(capsys, "clique-table", "--m", "2:5", "--s", "1:2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,s,parts"
        assert "2,1,2" in lines
        assert "4,2,4" in lines
        assert any(line.startswith("# manifest") for line in lines)

    def test_clique_table_parts_dump(self, capsys, tmp_path):
        parts = tmp_path / "partition.txt"
        code, _, _ = run_cli(
            capsys, "clique-table", "--m", "2:2", "--s", "1:1", "--parts", str(parts)
        )
        assert code == 0
        assert parts.read_text().splitlines() == ["1: 00 : 00 01", "2: 11 : 10 11"]
        code, _, err = run_cli(
            capsys, "clique-table", "--m", "2:4", "--s", "1:1", "--parts", str(parts)
        )
        assert code == 2 and "single" in err

    def test_clique_table_parts_range_writes_nothing(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "clique-table", "--m", "2:4", "--s", "1", "--out",
            str(tmp_path / "table.csv"), "--parts", str(tmp_path / "parts.txt"),
        )
        assert code == 2 and out == ""
        assert err == "error: --parts needs a single (m, s) cell\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--m", "2", "--s", "5", "--parts", "{tmp}/p.txt"],
            ["--m", "3", "--s", "0", "--parts", "{tmp}/q.txt", "--out", "{tmp}/t.csv"],
        ],
        ids=["m-below-2s", "s-zero"],
    )
    def test_clique_table_parts_outside_the_table_writes_nothing(self, capsys, tmp_path, argv):
        # partition_size_table keeps only s >= 1 and m >= 2s
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        code, out, err = run_cli(capsys, "clique-table", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --parts: no table row") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "m,s,digest",
        [
            (8, 1, "d26af6529a0580e50fc74e94417529386c195672f7c142ad95aae274e50ba39e"),
            (8, 2, "42a7f248e66b3399656e8985a1053d31392cbb62ea8154d45641a107c6100f07"),
            (10, 3, "21cfd01c028a396211981af90c79db57e4ec951a42010967652eb625a134d348"),
        ],
    )
    def test_clique_table_parts_digest(self, capsys, tmp_path, m, s, digest):
        parts = tmp_path / "partition.txt"
        code, _, _ = run_cli(
            capsys, "clique-table", "--m", str(m), "--s", str(s), "--parts", str(parts)
        )
        assert code == 0
        assert hashlib.sha256(parts.read_bytes()).hexdigest() == digest

    def test_clique_table_parts_builds_the_partition_once(self, capsys, tmp_path, monkeypatch):
        from grainlab import graph

        calls = []
        greedy = graph.greedy_clique_partition

        def counting(m, s):
            calls.append((m, s))
            return greedy(m, s)

        monkeypatch.setattr(graph, "greedy_clique_partition", counting)
        parts = tmp_path / "p.txt"
        code, out, _ = run_cli(
            capsys, "clique-table", "--m", "14", "--s", "1", "--parts", str(parts)
        )
        assert code == 0 and out.startswith("m,s,parts\n14,1,3002\n")
        assert calls == [(14, 1)]
        assert hashlib.sha256(parts.read_bytes()).hexdigest() == (
            "649d0c6528c3c61584dd3c39629750adcdcb07e080da82306084d1e667e6ef36"
        )

    def test_byte_identical_rerun(self, capsys):
        argv = ["fig3", "--grid", "0:1:0.25", "--J", "15"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_fig3_columns_and_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "fig3.csv"
        code, _, _ = run_cli(
            capsys, "fig3", "--grid", "0:1:0.5", "--J", "15", "--out", str(out_path)
        )
        assert code == 0
        text = out_path.read_text()
        assert text.splitlines()[0] == "p,sir,capacity_lower,capacity_upper,error_bound"
        sidecar = tmp_path / "fig3.csv.manifest.json"
        manifest = json.loads(sidecar.read_text())
        assert manifest["command"] == "fig3"
        assert "created" in manifest
        assert "created" not in text  # timestamp kept out of the CSV

    def test_fig1_columns_and_validity_gap(self, capsys):
        code, out, _ = run_cli(capsys, "fig1", "--tau-grid", "0.05:0.2:0.05")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,gv_lower,prop2_upper,cor2_min,rn_lower"
        data = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        by_tau = {row[0]: row for row in data}
        assert by_tau["0.05"][2] != ""   # inside validity
        assert by_tau["0.1"][2] == ""    # past 0.0706: empty column
        assert all(row[4] == "0.5" for row in data)

    def test_bounds_with_custom_table(self, capsys, tmp_path):
        table = tmp_path / "chi.csv"
        table.write_text("m,s,parts\n2,1,2\n4,2,4\n# comment\n")
        code, out, _ = run_cli(
            capsys, "bounds", "--tau-grid", "0.1:0.2:0.1", "--table", str(table)
        )
        assert code == 0
        assert out.splitlines()[0].startswith("tau,gv_lower,prop2_upper,cor2_min")

    def test_capacity_csv(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--grid", "0:1:0.5", "--J", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,capacity_lower,capacity_upper"
        assert any("sir_below_half_at" in line for line in lines)

    def test_svg_render(self, capsys, tmp_path):
        svg = tmp_path / "fig1.svg"
        code, _, _ = run_cli(
            capsys, "fig1", "--tau-grid", "0.01:0.4:0.01", "--svg", str(svg)
        )
        assert code == 0
        content = svg.read_text()
        assert content.startswith("<svg") and "polyline" in content


class TestGoldenArtifacts:
    """The paper's artifacts, regenerated, byte for byte.  The
    .manifest.json sidecars carry a timestamp and are not compared."""

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("fig1", ["fig1", "--tau-grid", "0.002:0.5:0.002"]),
            ("fig3", ["fig3", "--grid", "0:1:0.005", "--J", "15"]),
        ],
    )
    def test_figures_match_out(self, capsys, tmp_path, name, argv):
        csv, svg = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
        code, _, _ = run_cli(capsys, *argv, "--out", str(csv), "--svg", str(svg))
        assert code == 0
        assert csv.read_bytes() == (ROOT / "out" / f"{name}.csv").read_bytes()
        assert svg.read_bytes() == (ROOT / "out" / f"{name}.svg").read_bytes()

    def test_tracked_sidecars_have_the_written_keys(self, capsys, tmp_path):
        # the timestamps differ from run to run; the keys must not
        argvs = {
            "fig1": ["fig1", "--tau-grid", "0.002:0.5:0.002"],
            "fig3": ["fig3", "--grid", "0:1:0.005", "--J", "15"],
        }
        for name, argv in argvs.items():
            code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / f"{name}.csv"))
            assert code == 0
        tracked = sorted((ROOT / "out").glob("*.manifest.json"))
        assert [p.name for p in tracked] == ["fig1.csv.manifest.json", "fig3.csv.manifest.json"]
        for path in tracked:
            want = json.loads((tmp_path / path.name).read_text())
            have = json.loads(path.read_text())
            assert have.keys() == want.keys(), path.name
            assert have["params"].keys() == want["params"].keys(), path.name

    # sha256 of the whole CSV text, manifest trailer included
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["bounds", "--tau-grid", "0.002:0.5:0.002"],
                "8b183f478a6c0ac15fdbae670e07d909d1c74bcc6d56b2112d24b8cb4b5fa9eb",
            ),
            (
                ["capacity", "--grid", "0:1:0.01"],
                "907dd2bfea125bdf8d78ca6a58866014a8a5c872e60f5ff1ac32faed292664b1",
            ),
        ],
    )
    def test_tables_match_digest(self, capsys, tmp_path, argv, digest):
        csv = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, *argv, "--out", str(csv))
        assert code == 0
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


class TestCodesCommands:
    def test_construct_and_verify_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "doubling", "--n", "8", "--out", str(path)
        )
        assert code == 0 and "16 words" in out
        code, out, _ = run_cli(capsys, "verify-code", "--file", str(path), "--t", "4")
        assert code == 0 and "true" in out

    def test_verify_list_and_known(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("00\n01\n")
        code, out, _ = run_cli(capsys, "verify-code", "--file", str(path), "--t", "1")
        assert code == 0 and "false" in out
        code, out, _ = run_cli(
            capsys, "verify-code", "--file", str(path), "--t", "1", "--list", "2"
        )
        assert "true" in out
        code, out, _ = run_cli(
            capsys, "verify-code", "--file", str(path), "--t", "1", "--known-grain"
        )
        assert "false" in out

    def test_construct_doubling_stdout_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--kind", "doubling", "--n", "8")
        assert code == 0
        assert out == "".join(f"{w}\n" for w in [
            "00000000", "00000011", "00001100", "00001111",
            "00110000", "00110011", "00111100", "00111111",
            "11000000", "11000011", "11001100", "11001111",
            "11110000", "11110011", "11111100", "11111111",
        ])

    def test_construct_greedy_known_stdout_pinned(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "greedy-known", "--n", "10", "--t", "1"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1339523a6682a271ad557e01827e103f7066fc86254fd2638e3abf929f8a2887"
        )

    def test_construct_greedy_known_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "greedy-known", "--n", "5", "--t", "1"
        )
        assert code == 0
        words = [w for w in out.strip().splitlines()]
        assert len(words) >= 7 and all(len(w) == 5 for w in words)


class TestSimulate:
    def test_explicit_word_deterministic(self, capsys):
        argv = ["simulate", "--p", "0.5", "--seed", "9", "--x", "0101010101"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        assert len(first.strip()) == 10

    def test_p0_identity(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--p", "0", "--seed", "1", "--x", "0110"
        )
        assert out.strip() == "0110"

    def test_erasure_channel(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "simulate", "--p", "0.9", "--seed", "4", "--n", "200",
            "--channel", "erasures",
        )
        word = out.strip()
        assert set(word) <= {"0", "1", "e"}
        assert "ee" not in word

    def test_explicit_n_equal_to_the_word_length(self, capsys):
        argv = ["simulate", "--p", "0.5", "--seed", "9", "--x", "0101010101"]
        _, out, _ = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--n", "10")[:2] == (0, out)

    def test_stats(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--p", "0.3", "--seed", "7", "--n", "5000", "--stats"
        )
        assert code == 0
        assert "indicator_rate" in out
        assert "adjacent_indicator_pairs = 0" in out

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 1000])
    def test_random_input_matches_per_symbol_word(self, capsys, n):
        """The packed random input is the word the per-symbol generator
        built from the same draw, so the printed output is unchanged."""
        seed, stream = 42, 2
        bits = make_rng(seed, stream + 1).integers(0, 2, size=n, dtype=int)
        old = Word.from_bits(int(b) for b in bits)
        assert Word.from_array(bits) == old
        _, out, _ = run_cli(
            capsys, "simulate", "--n", str(n), "--p", "0.3",
            "--seed", str(seed), "--stream", str(stream),
        )
        assert out.strip() == str(simulate_grains(old, ChannelSpec(0.3), seed, stream))


class TestErrorPaths:
    def test_precondition_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sir", "--p", "1.5")
        assert code == 2 and "error:" in err

    def test_sir_depth_past_max_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sir", "--p", "0.5", "--J", "4097")
        assert code == 2 and out == ""
        assert err.startswith("error: depth 4097 exceeds 4096") and err.count("\n") == 1

    def test_cap_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "phi", "--x", "0" * 30, "--t", "1")
        assert code == 3 and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-code", "--file", "{tmp}/long.txt", "--t", "1"],
            ["verify-code", "--file", "{tmp}/long.txt", "--t", "1", "--known-grain"],
            ["phi", "--x", "01" * 35, "--t", "1"],
            ["confusable", "--x1", "0" * 70, "--x2", "01" * 35, "--t", "1"],
        ],
        ids=["verify-code", "known-grain", "phi", "confusable"],
    )
    def test_past_63_bits_exit_2_under_a_raised_cap(self, capsys, tmp_path, argv):
        (tmp_path / "caps.cfg").write_text("error_enum_n=70\n")
        (tmp_path / "long.txt").write_text("1" * 70 + "\n1" + "0" * 69 + "\n")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, out, err = run_cli(capsys, "--config", str(tmp_path / "caps.cfg"), *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "2^70" in err

    def test_malformed_code_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0011\n012x\n")
        code, _, err = run_cli(capsys, "verify-code", "--file", str(path), "--t", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--tau-grid", "0.1:x:0.1"],
            ["clique-table", "--m", "2:x", "--s", "1"],
            ["fig1", "--tau-grid", "0.1", "--table", "{tmp}/chi.csv"],
            ["verify-code", "--file", "{tmp}/missing.txt", "--t", "1"],
            ["verify-code", "--file", "{tmp}/binary.txt", "--t", "1"],
            ["--config", "{tmp}/missing.cfg", "phi", "--x", "01", "--t", "1"],
            ["simulate", "--n", "-3", "--p", "0.3", "--seed", "1"],
            ["simulate", "--stats", "--n", "0", "--p", "0.3", "--seed", "1"],
            ["simulate", "--n", "20", "--p", "0.3", "--seed", "18446744073709551621"],
            ["simulate", "--stats", "--p", "0.3", "--seed", "18446744073709551621"],
            ["simulate", "--p", "0.3", "--seed", "5", "--stream", "18446744073709551616"],
            ["simulate", "--p", "0.3", "--seed", "5", "--stream", "18446744073709551615"],
            ["simulate", "--stats", "--x", "0101", "--p", "0.3", "--seed", "1"],
            ["simulate", "--x", "01011", "--n", "3", "--p", "0.3", "--seed", "1"],
            ["simulate", "--x", "0101", "--n", "0", "--p", "0.3", "--seed", "1"],
            ["bounds", "--tau-grid", "0.3", "--list", "0"],
            ["clique-table", "--m", "5:2", "--s", "1"],
            ["fig1", "--tau-grid", "0.3:0.1:0.1"],
            ["capacity", "--grid", "0:inf:0.1"],
            ["fig3", "--grid", "0.1:0.2:nan"],
            ["confusable", "--x1", "01", "--x2", "01", "--t", "-1"],
            ["confusable", "--x1", "00", "--x2", "10", "--t", "-1"],
            ["confusable", "--x1", "00", "--x2", "01", "--t", "-1"],
            ["construct", "--kind", "doubling"],
            ["construct", "--kind", "hamming-prefix"],
            ["construct", "--kind", "greedy-known", "--n", "8"],
            ["bounds", "--tau-grid", "0.1:0.2:0"],
            ["bounds", "--tau-grid", "0.1", "--table", "{tmp}/empty.csv"],
            ["phi", "--x", "01", "--t", "-1"],
            ["bounds", "--tau-grid", "0.1", "--table", "{tmp}/m0.csv"],
            ["bounds", "--tau-grid", "0.1", "--table", "{tmp}/s0.csv"],
            ["bounds", "--tau-grid", "0.4", "--table", "{tmp}/parts0.csv"],
            ["phi", "--x", "0110", "--t", "1", "--e", "4:3"],
        ],
        ids=["grid", "range", "chi-row", "code-file", "binary-file", "config-file",
             "sim-n", "stats-n", "sim-seed-2^64", "stats-seed-2^64", "sim-stream-2^64",
             "sim-input-stream-2^64", "stats-with-x", "n-not-len-x", "n-0-with-x",
             "list", "reversed-range", "reversed-grid",
             "inf-grid", "nan-step", "confusable-same", "confusable-first-bit",
             "confusable-images", "doubling-no-n", "hamming-prefix-no-m",
             "greedy-known-no-t", "zero-step", "empty-table", "phi-negative-t",
             "table-m-0", "table-s-0", "table-parts-0-inadmissible", "phi-t-and-e"],
    )
    def test_malformed_input_exit_2(self, capsys, tmp_path, argv):
        """Malformed text, a missing or undecodable input file or an
        out-of-range count is a precondition violation: exit 2 with one
        error line.  An uncaught exception fails this test before its
        asserts."""
        (tmp_path / "chi.csv").write_text("m,s,parts\n2,1\n")
        (tmp_path / "empty.csv").write_text("m,s,parts\n# no rows\n")
        (tmp_path / "binary.txt").write_bytes(b"\xff\xfe\x00")
        # m = 0 divided by zero; s = 0 and parts = 0 at tau > s/m went through
        for name, row in (("m0", "0,1,2"), ("s0", "4,0,2"), ("parts0", "4,1,0")):
            (tmp_path / f"{name}.csv").write_text(f"m,s,parts\n{row}\n")
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "seed, stream",
        [("-1", None), ("5", "18446744073709551615"), ("-1", "-1")],
        ids=["negative-seed", "input-stream-2^64", "negative-both"],
    )
    def test_random_input_names_the_given_seed_and_stream(self, capsys, seed, stream):
        # the input word's stream is --stream + 1, which the message named
        argv = ["simulate", "--p", "0.3", "--seed", seed] + (["--stream", stream] if stream else [])
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: --seed {seed}, --stream {stream or 0}: ")
        assert "--stream < 2^64 - 1" in err and err.count("\n") == 1

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["phi", "--x", "01", "--t", "1", "--bogus"])
        assert exc.value.code == 2

    def test_config_file_overrides_caps(self, capsys, tmp_path):
        cfg = tmp_path / "caps.cfg"
        cfg.write_text("error_enum_n=30\n")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "phi", "--x", "0" * 30, "--t", "1"
        )
        assert code == 0

    def test_config_file_caps_end_with_the_call(self, capsys, tmp_path):
        before = dataclasses.asdict(get_caps())
        cfg = tmp_path / "caps.cfg"
        cfg.write_text("error_enum_n=30\npartition_m=12\n")
        code, _, _ = run_cli(
            capsys, "--config", str(cfg), "phi", "--x", "0" * 30, "--t", "1"
        )
        assert code == 0
        assert dataclasses.asdict(get_caps()) == before
        bad = tmp_path / "bad.cfg"
        bad.write_text("partition_m=12\nnot_a_cap=1\n")
        code, _, err = run_cli(
            capsys, "--config", str(bad), "phi", "--x", "01", "--t", "1"
        )
        assert code == 2 and "unknown cap name: 'not_a_cap'" in err
        assert dataclasses.asdict(get_caps()) == before


class TestCapsOverride:
    def test_scoped_and_restored_on_exception(self):
        before = dataclasses.asdict(get_caps())
        with pytest.raises(RuntimeError):
            with caps_override(error_enum_n=30, exact_m_time_limit=2.5) as caps:
                assert caps.error_enum_n == 30 and caps.exact_m_time_limit == 2.5
                raise RuntimeError
        assert dataclasses.asdict(get_caps()) == before

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"partition_m": 12, "bogus": 1}, "unknown cap name: 'bogus'"),
            ({"partition_m": "twelve"}, "bad cap value partition_m='twelve'"),
        ],
    )
    def test_validation_messages_and_no_partial_update(self, kwargs, message):
        before = dataclasses.asdict(get_caps())
        with pytest.raises(PreconditionError, match=message):
            with caps_override(**kwargs):
                pass
        assert dataclasses.asdict(get_caps()) == before


def test_every_cap_is_read_somewhere():
    """A cap that no module passes to check_cap or reads off get_caps()
    bounds nothing; the six caps are each read at least once."""
    source = "\n".join(
        path.read_text() for path in Path(grainlab.__file__).parent.glob("*.py")
    )
    names = [field.name for field in dataclasses.fields(Caps)]
    assert len(names) == 6
    for name in names:
        assert re.search(rf'check_cap\(.*"{name}"\)|get_caps\(\)\.{name}\b', source), name
    for gone in ("hamming_m", "error_entropy_n"):
        with pytest.raises(PreconditionError, match=f"unknown cap name: '{gone}'"):
            Caps().replace({gone: "5"})


def test_no_series_name_is_imported_through_channel():
    """channel re-exports sir, capacity_curves and output_entropy_series
    for the benchmark alone; the package and its tests take every series
    name from series, by import or as a module attribute."""
    package = Path(grainlab.__file__).parent
    series_names = set()
    for node in ast.parse((package / "series.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            series_names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            series_names.update(t.id for t in targets if isinstance(t, ast.Name))
    assert {"sir", "DEPTH_MAX", "SirResult", "_check"} <= series_names
    through_channel = []
    for path in sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (
                ("grainlab.channel", 0), ("channel", 1)
            ):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and (
                getattr(node.value, "id", None) == "channel"
                or getattr(node.value, "attr", None) == "channel"
            ):
                names = [node.attr]
            else:
                continue
            through_channel += [(path.name, node.lineno, n) for n in names if n in series_names]
    assert through_channel == []


def test_numpy_floor_has_bitwise_count():
    # the mask readers count weights with np.bitwise_count, new in numpy 2.0;
    # a regex, since Python 3.10 has no tomllib
    found = re.findall(r'"numpy>=(\d+)\.(\d+)', (ROOT / "pyproject.toml").read_text())
    assert len(found) == 1 and tuple(map(int, found[0])) >= (2, 0), found


class TestBadCapValues:
    """nan, inf and a negative value are rejected by every caps source
    before any search starts: exit 2 with one error line.  Accepted, the
    first two would mean an unlimited search."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_time_limit_flag_and_config_file(self, capsys, tmp_path, value):
        cfg = tmp_path / "caps.cfg"
        cfg.write_text(f"exact_m_time_limit={value}\n")
        # (9, 2) ends in well under a second, so an accepted value shows
        # up as exit 0 or 3, not as a hang
        for argv in (
            ["mnt", "--n", "9", "--t", "2", "--time-limit", value],
            ["--config", str(cfg), "mnt", "--n", "9", "--t", "2"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: bad cap value exact_m_time_limit=")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_caps_override(self, value):
        with pytest.raises(PreconditionError, match="bad cap value exact_m_time_limit"):
            with caps_override(exact_m_time_limit=value):
                pass
        with pytest.raises(PreconditionError, match="bad cap value partition_m"):
            with caps_override(partition_m=value):
                pass

    @pytest.mark.parametrize(
        "argv, caps",
        [
            (["--time-limit", "nan"], ""),
            ([], "exact_m_time_limit=nan"),
            ([], "exact_m_time_limit=inf"),
            ([], "exact_m_time_limit=-1"),
        ],
        ids=["flag", "env-nan", "env-inf", "env-negative"],
    )
    def test_mnt_n9_exits_at_once(self, argv, caps):
        proc = subprocess.run(
            [sys.executable, "-m", "grainlab.cli", "mnt", "--n", "9", "--t", "1", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": PACKAGE_PATH, "GRAINLAB_CAPS": caps},
            timeout=30,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: bad cap value exact_m_time_limit=")
        assert proc.stderr.count("\n") == 1

    def test_flag_wins_over_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "caps.cfg"
        cfg.write_text("exact_m_time_limit=1e-9  # stop at once\n")
        code, _, _ = run_cli(capsys, "--config", str(cfg), "mnt", "--n", "8", "--t", "2")
        assert code == 3
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "mnt", "--n", "8", "--t", "2", "--time-limit", "0"
        )
        assert code == 0 and "= 22 [exact]" in out

    def test_caps_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            get_caps().partition_m = 20

    def test_parse_cap_string_comments_and_lines(self):
        text = "# caps\nerror_enum_n=30, partition_m=12  # why\n\nhamming_m=3;exact_m_n=9\n"
        assert parse_cap_string(text) == {
            "error_enum_n": "30", "partition_m": "12", "hamming_m": "3", "exact_m_n": "9"
        }


class TestEnvCaps:
    def test_grainlab_caps_env(self):
        proc = subprocess.run(
            [sys.executable, "-m", "grainlab.cli", "phi", "--x", "0" * 26, "--t", "1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": PACKAGE_PATH,
                 "GRAINLAB_CAPS": "error_enum_n=28"},
        )
        assert proc.returncode == 0

    def test_env_cap_lowering(self):
        proc = subprocess.run(
            [sys.executable, "-m", "grainlab.cli", "phi", "--x", "0101", "--t", "1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": PACKAGE_PATH,
                 "GRAINLAB_CAPS": "error_enum_n=3"},
        )
        assert proc.returncode == 3

    def test_env_unknown_cap_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "grainlab.cli", "phi", "--x", "01", "--t", "1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": PACKAGE_PATH, "GRAINLAB_CAPS": "graph_n=12"},
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: unknown cap name: 'graph_n'\n"


def test_version_help_and_usage_errors_import_no_numpy():
    """The handlers import the library, so argparse's own exits stay light."""
    script = (
        "import sys\n"
        "from grainlab.cli import main\n"
        "for argv in (['--version'], ['--help'], ['bogus'], ['phi']):\n"
        "    try:\n"
        "        main(argv)\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PATH},
    )
    assert proc.stdout.splitlines()[-1] == "False"


def test_scalar_commands_import_no_numpy(tmp_path):
    """sir, zero-error, capacity, fig3, bounds and fig1 run on the
    numpy-free series and bounds modules."""
    script = (
        "import sys\n"
        "from grainlab.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "codes = [main(argv) for argv in (\n"
        "    ['sir', '--p', '0.5', '--J', '15'],\n"
        "    ['zero-error', '--n', '7'],\n"
        "    ['capacity', '--grid', '0:1:0.25', '--out', out + '/capacity.csv'],\n"
        "    ['fig3', '--grid', '0:1:0.25', '--out', out + '/fig3.csv',\n"
        "     '--svg', out + '/fig3.svg'],\n"
        "    ['bounds', '--tau-grid', '0.01:0.5:0.01', '--out', out + '/bounds.csv'],\n"
        "    ['fig1', '--tau-grid', '0.01:0.5:0.01', '--out', out + '/fig1.csv',\n"
        "     '--svg', out + '/fig1.svg'],\n"
        ")]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PATH},
    )
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False"
    written = {path.name for path in tmp_path.iterdir()}
    assert {"bounds.csv", "capacity.csv", "fig1.csv", "fig1.svg", "fig3.csv",
            "fig3.svg"} <= written


def test_phi_and_confusable_import_no_numpy():
    """phi --t, phi --e and confusable walk the grain supports on Python
    ints; model imports numpy only inside its bulk kernels."""
    script = (
        "import sys\n"
        "from grainlab.cli import main\n"
        "codes = [main(argv) for argv in (\n"
        "    ['phi', '--x', '01101001', '--t', '2'],\n"
        "    ['phi', '--x', '100001000010000', '--e', '15:4,7,9,14'],\n"
        "    ['confusable', '--x1', '01101001', '--x2', '00101000', '--t', '2'],\n"
        ")]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PATH},
    )
    assert proc.stdout.splitlines() == [
        "01101001 00101001 00111001 00100001 00101101 00101000 01111001 "
        "01111101 01111000 01100001 01100000 01101101 01101100 01101000",
        "100001100010000",
        "true",
        "[0, 0, 0] False",
    ]


class TestBenchRecord:
    def test_medians_ratios_wins_and_environment(self, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location(
            "bench_record", ROOT / "scripts" / "bench_record.py"
        )
        bench_record = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_record)

        def run(seed, wall, env, trace=False):
            return {
                "kind": "run", "workload": "channel", "seed": seed, "trace": trace,
                "smoke": False, "attempted": 10, "failed": 0, "env": env,
                "metrics": {"wall_s": wall, "setup_s": 0.2, "peak_rss_mb": 50.0},
            }

        env_a, env_b = {"src_sha256": "a"}, {"src_sha256": "b"}
        sides = {
            "parent": [run(1, 2.0, env_a), run(2, 2.2, env_a), run(3, 1.0, env_a, True)],
            "change": [run(1, 0.5, env_b), run(2, 2.3, env_b), run(3, 0.3, env_b, True),
                       {"kind": "tier1", "passed": 5, "failed": 0}],
        }
        paths = []
        for side, records in sides.items():
            path = tmp_path / f"{side}.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in records))
            paths.append(str(path))
        out = tmp_path / "BENCH.json"
        assert bench_record.main([*paths, "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        wall = record["compare"]["channel"]["wall_s"]
        assert wall["parent"]["median"] == pytest.approx(2.1)
        assert wall["change"]["n"] == 2 and wall["change"]["median"] == pytest.approx(1.4)
        assert wall["ratio"] == pytest.approx(1.4 / 2.1)
        assert (wall["pairs"], wall["change_wins"]) == (2, 1)
        assert record["compare"]["channel"]["error_rate"]["change"]["median"] == 0.0
        assert record["traced"]["change"]["channel"]["wall_s"] == 0.3
        assert record["seeds"] == {"parent": [1, 2, 3], "change": [1, 2, 3]}
        assert record["environment"] == {"parent": [env_a], "change": [env_b]}
        assert record["tier1"]["change"] == [{"kind": "tier1", "passed": 5, "failed": 0}]
