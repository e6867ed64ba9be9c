import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import ref_canonical_dumps, ref_densify, ref_load_obj, ref_unflat_error
from permres import cli, complexes, config, modules, permutation, resolution
from permres.cli import main
from permres.complexes import (
    CertReport,
    CheckResult,
    Complex,
    certify_resolution,
    direct_sum_complexes,
    single_term_complex,
    tag_complex,
)
from permres.errors import PermresError
from permres.groups import Group, Subgroup, all_subgroups
from permres.io import (
    FormatError,
    _part_rows,
    canonical_dumps,
    complex_from_obj,
    complex_to_obj,
    descriptor_from_obj,
    descriptor_to_obj,
    detect_kind,
    load_obj,
    module_from_obj,
    module_to_obj,
    save_obj,
)
from permres.modules import free_module, identity_map, trivial_module
from permres.permutation import PermutationDescriptor
from permres.random_modules import random_module
from permres.resolution import good_resolution, trivial_resolution
from test_acceptance import END_TO_END_CORPUS

ROOT = Path(__file__).resolve().parent.parent


class TestRoundTrips:
    def test_module_round_trip(self):
        mod = random_module(3, 2, 4, seed=2)
        obj = module_to_obj(mod)
        text = canonical_dumps(obj)
        back = module_from_obj(json.loads(text))
        assert back == mod
        assert canonical_dumps(module_to_obj(back)) == text

    def test_descriptor_round_trip(self):
        group = Group(2, 2)
        d = PermutationDescriptor(
            group, (Subgroup.trivial(group), Subgroup(group, [[0, 1]]))
        )
        text = canonical_dumps(descriptor_to_obj(d))
        back = descriptor_from_obj(json.loads(text))
        assert back == d
        assert canonical_dumps(descriptor_to_obj(back)) == text

    def test_complex_round_trip(self):
        res = good_resolution(trivial_module(Group(2, 2), 1), 1)
        obj = complex_to_obj(res.complex, m=res.m)
        text = canonical_dumps(obj)
        loaded = complex_from_obj(json.loads(text))
        assert loaded.complex.dims() == res.complex.dims()
        assert loaded.m == 1
        assert loaded.digest == loaded.digest_expected
        again = complex_to_obj(loaded.complex, m=loaded.m)
        # untagged reload loses tags; compare the structural payload
        for key in ("terms", "differentials", "augmentation", "p", "rank"):
            assert again[key] == obj[key]

    def test_realized_terms_accepted(self):
        group = Group(2, 1)
        obj = {
            "p": 2,
            "rank": 1,
            "terms": [{"parts": [[]], "realize": True}],
            "differentials": [],
            "augmentation": None,
        }
        loaded = complex_from_obj(obj)
        assert loaded.complex.terms[0] == free_module(group, 1)

    def test_malformed_entries_rejected(self, tmp_path):
        for bad in ([7], [True]):
            obj = ref_densify(module_to_obj(trivial_module(Group(2, 1), 1)))
            obj["generators"][0] = bad
            with pytest.raises(FormatError):
                module_from_obj(obj)
        # the vector form, on kE over V4: dim 4, two generators
        good = module_to_obj(free_module(Group(2, 2), 1))
        assert good["perms"] == [[2, 3, 0, 1], [1, 0, 3, 2]]
        for edit, text in [
            (lambda o: o["perms"].__setitem__(0, [7]), "module generator 1: expected 4 entries"),
            (lambda o: o["perms"][0].__setitem__(0, 7), "module generator 1: entry 7 is not"),
            (lambda o: o["perms"][1].__setitem__(0, True), "module generator 2: entry True is not"),
            (lambda o: o["perms"][0].__setitem__(0, 1.0), "module generator 1: entry 1.0 is not"),
            (lambda o: o["perms"][0].__setitem__(0, None), "module generator 1: entry None is not"),
            (lambda o: o["perms"][0].__setitem__(0, -1), "module generator 1: entry -1 is not"),
            (lambda o: o["perms"][1].__setitem__(0, 3), "module: generator 2 is not a permutation"),
            (lambda o: o.__setitem__("perms", [[]] * 2), "module generator 1: expected 4 entries"),
            (lambda o: o["perms"][0].pop(), "module generator 1: expected 4 entries, got 3"),
            (lambda o: o["perms"].pop(), "module: expected 2 generators, got 1"),
            (lambda o: o.__setitem__("generators", [[]]), "module: need integer dim and one of"),
        ]:
            obj = json.loads(json.dumps(good))
            edit(obj)
            with pytest.raises(FormatError, match=re.escape(text)):
                module_from_obj(obj)
        # vectors read as leaf arrays are refused with the text of lists
        save_obj(tmp_path / "m.json", good)
        for entry, text in [
            (7, "module generator 2: entry 7 is not"),
            (3, "module: generator 2 is not a permutation"),
        ]:
            for obj in (load_obj(tmp_path / "m.json"), ref_load_obj(tmp_path / "m.json")):
                obj["perms"][1][0] = entry
                with pytest.raises(FormatError, match=re.escape(text)):
                    module_from_obj(obj)

    def test_detect_kind(self):
        assert detect_kind({"terms": []}) == "complex"
        assert detect_kind({"parts": []}) == "descriptor"
        assert detect_kind({"generators": [], "dim": 0}) == "module"
        assert detect_kind({"perms": [], "dim": 0}) == "module"
        with pytest.raises(FormatError):
            detect_kind({"something": 1})


def _cli_process(*argv, **env_overrides):
    """Run ``python -m permres.cli`` in a fresh process (30 s timeout)."""
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "permres.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_parser_keeps_nothing_between_calls(self, tmp_path, monkeypatch, capsys):
        res = resolution.trivial_resolution(Group(2, 1), 2)
        path = tmp_path / "res.json"
        save_obj(path, complex_to_obj(res.complex, m=1))
        seen = []
        certify = cli.certify_resolution

        def recorded(c, m=None):
            seen.append((m, config.dim_cap()))
            return certify(c, m=m)

        monkeypatch.setattr(cli, "certify_resolution", recorded)
        assert main(["--cap-dim", "50", "verify", str(path), "--m", "3"]) == 0
        assert main(["verify", str(path)]) == 0
        assert seen == [(3, 50), (1, config.DEFAULT_DIM_CAP)]
        assert cli.build_parser() is cli.build_parser()

    def test_random_build_verify_cycle(self, tmp_path, capsys):
        mod_path = tmp_path / "mod.json"
        res_path = tmp_path / "res.json"
        assert self.run("random", "--p", "2", "--r", "1", "--dim", "2", "--seed", "7", "--out", str(mod_path)) == 0
        assert self.run("build", str(mod_path), "--m", "1", "--out", str(res_path)) == 0
        out = capsys.readouterr().out
        assert "VERDICT: PASS" in out
        assert self.run("verify", str(res_path)) == 0
        out = capsys.readouterr().out
        assert "VERDICT: PASS" in out
        assert "digest: ok" in out

    def test_caps_hold_after_a_build_fills_the_coset_memo(self, tmp_path, capsys):
        mod_path = tmp_path / "mod.json"
        res_path = tmp_path / "res.json"
        assert self.run("random", "--p", "2", "--r", "2", "--dim", "3", "--seed", "7", "--out", str(mod_path)) == 0
        # under the default caps: builds k(E/H) for the subgroups of V4, kE (dim 4) among them
        assert self.run("build", str(mod_path), "--m", "1", "--out", str(res_path)) == 0
        res_path.unlink()
        capsys.readouterr()
        code = self.run("--cap-dim", "3", "build", str(mod_path), "--m", "1", "--out", str(res_path))
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("error: module dimension 4 exceeds cap 3") and "Traceback" not in err
        assert not res_path.exists()

    def test_random_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.run("random", "--p", "3", "--r", "2", "--dim", "4", "--seed", "11", "--out", str(a))
        self.run("random", "--p", "3", "--r", "2", "--dim", "4", "--seed", "11", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_verify_catches_corruption(self, tmp_path, capsys):
        mod_path = tmp_path / "mod.json"
        res_path = tmp_path / "res.json"
        k = trivial_module(Group(2, 1), 1)
        mod_path.write_text(canonical_dumps(module_to_obj(k)))
        self.run("build", str(mod_path), "--m", "0", "--out", str(res_path))
        capsys.readouterr()
        obj = json.loads(res_path.read_text())
        obj["differentials"][0][0] = (obj["differentials"][0][0] + 1) % 2
        res_path.write_text(canonical_dumps(obj))
        assert self.run("verify", str(res_path)) == 2
        out = capsys.readouterr().out
        assert "VERDICT: FAIL" in out
        assert "FAIL" in [line.split(": ", 1)[1][:4] for line in out.splitlines() if ": " in line][0] or "FAIL" in out

    def test_verify_catches_a_wrong_stored_tag(self, tmp_path, capsys):
        mod_path = tmp_path / "mod.json"
        res_path = tmp_path / "res.json"
        mod_path.write_text(canonical_dumps(module_to_obj(trivial_module(Group(2, 2), 1))))
        assert self.run("build", str(mod_path), "--m", "1", "--out", str(res_path)) == 0
        capsys.readouterr()
        obj = json.loads(res_path.read_text())
        # degree 1 is free; claim it is k(E/E) = k instead, a valid descriptor
        assert obj["tags"][1] != [[[1, 0], [0, 1]]]
        obj["tags"][1] = [[[1, 0], [0, 1]]]
        res_path.write_text(canonical_dumps(obj))
        assert self.run("verify", str(res_path)) == 2
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if ": FAIL" in line]
        # free-up-to reads the stored claim that degree 1 is not free
        assert failed == [
            "tags: FAIL (degree 1: recognized tag differs from the stored tag)",
            "free-up-to: FAIL (m = 1)",
            "VERDICT: FAIL",
        ]

    def test_verify_checks_stored_tags_in_the_certificate(self, tmp_path, capsys):
        path = tmp_path / "res.json"
        save_obj(path, complex_to_obj(trivial_resolution(Group(3, 2), 1).complex, m=1))
        assert self.run("verify", str(path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-4:] == ["tags: PASS", "free-up-to: PASS (m = 1)", "digest: ok", "VERDICT: PASS"]
        assert not any(line.startswith("tags-vs-file") for line in lines)

    def test_build_rejects_invalid_module(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        obj = {
            "p": 2,
            "rank": 2,
            "dim": 2,
            "generators": [[1, 1, 0, 1], [1, 0, 1, 1]],
        }
        bad.write_text(canonical_dumps(obj))
        code = self.run("build", str(bad), "--m", "0", "--out", str(tmp_path / "x.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "commutativity" in err

    def test_omega_verb(self, tmp_path, capsys):
        mod_path = tmp_path / "k.json"
        k = trivial_module(Group(3, 1), 1)
        mod_path.write_text(canonical_dumps(module_to_obj(k)))
        out_path = tmp_path / "w.json"
        assert self.run("omega", str(mod_path), "--n", "1", "--out", str(out_path)) == 0
        out = capsys.readouterr().out
        assert "dim 2" in out
        loaded = module_from_obj(json.loads(out_path.read_text()))
        assert loaded.dim == 2

    def test_omega_rejects_negative_n(self, tmp_path, capsys):
        mod_path = tmp_path / "k.json"
        mod_path.write_text(canonical_dumps(module_to_obj(trivial_module(Group(3, 1), 1))))
        out_path = tmp_path / "w.json"
        assert self.run("omega", str(mod_path), "--n", "-3", "--out", str(out_path)) == 2
        assert "--n" in capsys.readouterr().err
        assert not out_path.exists()
        assert self.run("omega", str(mod_path), "--n", "0", "--out", str(out_path)) == 0
        assert module_from_obj(json.loads(out_path.read_text())).dim == 1

    def test_omega_of_free_is_zero(self, tmp_path, capsys):
        mod_path = tmp_path / "f.json"
        mod_path.write_text(canonical_dumps(module_to_obj(free_module(Group(2, 1), 1))))
        out_path = tmp_path / "w.json"
        assert self.run("omega", str(mod_path), "--n", "1", "--out", str(out_path)) == 0
        assert "dim 0" in capsys.readouterr().out

    def test_tensor_verb(self, tmp_path, capsys):
        group = Group(2, 2)
        h1 = PermutationDescriptor(group, (Subgroup.coordinate_hyperplane(group, 1),))
        h2 = PermutationDescriptor(group, (Subgroup.coordinate_hyperplane(group, 2),))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(canonical_dumps(descriptor_to_obj(h1)))
        b.write_text(canonical_dumps(descriptor_to_obj(h2)))
        out_path = tmp_path / "t.json"
        assert self.run("tensor", str(a), str(b), "--out", str(out_path)) == 0
        got = descriptor_from_obj(json.loads(out_path.read_text()))
        assert got == PermutationDescriptor(group, (Subgroup.trivial(group),))

    def test_info_golden_module(self, tmp_path, capsys):
        mod_path = tmp_path / "m.json"
        obj = module_to_obj(free_module(Group(2, 1), 1))
        assert obj["perms"] == [[1, 0]]
        # the same lines for the dense form of files written before index vectors
        for form in (ref_densify(obj), obj):
            mod_path.write_text(canonical_dumps(form))
            assert self.run("info", str(mod_path)) == 0
            out = capsys.readouterr().out
            assert out == (
                "module file: p=2 rank=1 dim=2\n"
                "validate: ok\n"
                "free_rank: 1\n"
                "radical series dims: 2 1 0\n"
                "composition length: 2\n"
            )

    def test_info_golden_descriptor(self, tmp_path, capsys):
        group = Group(2, 2)
        d = PermutationDescriptor(group, (Subgroup.trivial(group), Subgroup.full(group)))
        path = tmp_path / "d.json"
        path.write_text(canonical_dumps(descriptor_to_obj(d)))
        assert self.run("info", str(path)) == 0
        out = capsys.readouterr().out
        assert out == (
            "descriptor file: p=2 rank=2 dim=5\n"
            "parts: 1x{} + 1x{10,01}\n"
        )

    def test_info_golden_complex(self, tmp_path, capsys):
        res = good_resolution(trivial_module(Group(2, 1), 1), 0)
        path = tmp_path / "c.json"
        path.write_text(canonical_dumps(complex_to_obj(res.complex, m=0)))
        assert self.run("info", str(path)) == 0
        out = capsys.readouterr().out
        assert out == (
            "complex file: p=2 rank=1 length 2\n"
            "term dims: 2 2 1\n"
            "target dim: 1\n"
            "tagged: yes\n"
            "meta m: 0\n"
        )

    def test_trim_verb(self, tmp_path, capsys):
        from permres.complexes import direct_sum_complexes, single_term_complex, tag_complex
        from permres.modules import identity_map

        group = Group(2, 1)
        k = trivial_module(group, 1)
        base = good_resolution(k, 1).complex
        f = free_module(group, 1)
        extra = tag_complex(single_term_complex(f, identity_map(f)))
        summed = direct_sum_complexes(base, extra)
        path = tmp_path / "sum.json"
        path.write_text(canonical_dumps(complex_to_obj(summed, m=1)))
        out_path = tmp_path / "trimmed.json"
        assert self.run("trim", str(path), "--free-rank", "1", "--out", str(out_path)) == 0
        assert self.run("verify", str(out_path), "--m", "1") == 0

    def test_trim_rejects_negative_free_rank(self, tmp_path, capsys):
        res = good_resolution(random_module(2, 1, 2, seed=1), 1)
        path = tmp_path / "res.json"
        path.write_text(canonical_dumps(complex_to_obj(res.complex, m=1)))
        out_path = tmp_path / "trimmed.json"
        assert self.run("trim", str(path), "--free-rank", "-1", "--out", str(out_path)) == 2
        assert "--free-rank" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "verb, field, value",
        [
            ("build", None, [1]),
            ("omega", None, [1]),
            ("tensor", None, [1]),
            ("trim", None, [1]),
            ("verify", None, [1]),
            ("verify", "augmentation", 5),
            ("verify", "terms", [3]),
            ("verify", "meta", [1]),
        ],
    )
    def test_non_object_bodies_exit_2(self, tmp_path, capsys, verb, field, value):
        if field is None:
            obj = value
        else:
            res = good_resolution(trivial_module(Group(2, 1), 1), 0)
            obj = complex_to_obj(res.complex, m=0)
            obj[field] = value
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        out_path = tmp_path / "out.json"
        argv = {
            "build": ["build", str(path), "--m", "0"],
            "omega": ["omega", str(path)],
            "tensor": ["tensor", str(path), str(path)],
            "trim": ["trim", str(path), "--free-rank", "1"],
            "verify": ["verify", str(path)],
        }[verb]
        if verb != "verify":
            argv += ["--out", str(out_path)]
        assert self.run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out_path.exists()

    def test_cap_flag(self, tmp_path, capsys):
        import permres.config as config

        code = self.run(
            "--cap-dim", "3", "random", "--p", "2", "--r", "1", "--dim", "2",
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 3
        # flags hold for one call only
        assert config.dim_cap() == config.DEFAULT_DIM_CAP
        assert config.order_cap() == config.DEFAULT_ORDER_CAP
        code = self.run(
            "--cap-order", "9", "random", "--p", "2", "--r", "1",
            "--dim", "2", "--out", str(tmp_path / "m.json"),
        )
        assert code == 0
        assert config.order_cap() == config.DEFAULT_ORDER_CAP

    @pytest.mark.parametrize("p, rank", [(2**61 - 1, 1), (3, 10**8)], ids=["prime", "rank"])
    def test_huge_group_hits_the_order_cap_fast(self, tmp_path, p, rank):
        # 2^61 - 1 is prime, and 3^(10^8) has 10^8 digits in base 3: the order
        # cap must refuse both before primality is tested or p^rank is formed
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"p": p, "rank": rank, "dim": 0, "generators": [[]]}))
        done = _cli_process("info", str(path))
        assert done.returncode == 3
        assert "exceeds cap" in done.stderr and "Traceback" not in done.stderr

    def test_tensor_past_the_dim_cap_exits_3_fast(self, tmp_path):
        # 3,000 free parts over C2 square to 9,000,000 parts of dim 36,000,000;
        # the cap must refuse the product before the pair loop builds them
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"p": 2, "rank": 1, "parts": [[]] * 3000}))
        out = tmp_path / "t.json"
        done = _cli_process("tensor", str(path), str(path), "--out", str(out))
        assert done.returncode == 3
        assert "exceeds cap" in done.stderr and "Traceback" not in done.stderr
        assert not out.exists()

    def test_utf8_file_is_read_under_an_ascii_locale(self, tmp_path):
        # JSON text is UTF-8 (RFC 8259), whatever the locale's encoding
        path = tmp_path / "m.json"
        obj = {"p": 2, "rank": 1, "dim": 1, "generators": [[1]], "note": "café"}
        path.write_bytes(json.dumps(obj, ensure_ascii=False).encode("utf-8"))
        done = _cli_process(
            "info", str(path), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"
        )
        assert done.returncode == 0, done.stderr
        assert "validate: ok" in done.stdout

    def test_prime_past_2_31_is_refused_under_a_raised_cap(self, tmp_path):
        # 2^61 - 1 is prime and passes a raised order cap; the field bound
        # refuses it before any trial division
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"p": 2**61 - 1, "rank": 1, "dim": 0, "generators": [[]]}))
        done = _cli_process("--cap-order", str(10**19), "info", str(path))
        assert done.returncode == 2
        assert "2^31" in done.stderr and "Traceback" not in done.stderr

    def test_info_over_a_large_prime_is_fast(self, tmp_path, capsys):
        # the norm and the pivot inverses cost O(log p), not O(p)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"p": 1000003, "rank": 1, "dim": 1, "generators": [[1]]}))
        t0 = time.perf_counter()
        assert self.run("--cap-order", "10000000", "info", str(path)) == 0
        assert time.perf_counter() - t0 < 5
        assert "free_rank: 0" in capsys.readouterr().out

    def test_a_dense_file_verifies_as_the_vector_file(self, tmp_path, capsys):
        # files written before index vectors hold dense generators; the
        # densified output of today's writer is such a file
        obj = complex_to_obj(trivial_resolution(Group(3, 2), 4).complex, m=4)
        dense = ref_densify(obj)
        assert all("generators" in t and "perms" not in t for t in dense["terms"])
        outs = []
        for name, form in (("v.json", obj), ("d.json", dense)):
            save_obj(tmp_path / name, form)
            assert self.run("verify", str(tmp_path / name)) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "digest: ok" in outs[1].splitlines()

    @pytest.mark.parametrize("verb", ["verify", "info", "trim"])
    @pytest.mark.parametrize(
        "value, error",
        [
            (None, "entry None is not an index"),
            (True, "entry True is not an index"),
            (1.0, "entry 1.0 is not an index"),
            (-1, "entry -1 is not an index"),
            (2**64, "entry 18446744073709551616 is not an index"),
            ("0", "entry '0' is not an index"),
            ([0], "entry [0] is not an index"),
        ],
        ids=["null", "true", "float", "negative", "2^64", "string", "list"],
    )
    def test_bad_vector_entries_exit_2(self, tmp_path, capsys, verb, value, error):
        obj = complex_to_obj(_k_plus_ke(Group(2, 2), 0), m=0)
        obj["terms"][0]["perms"][0][0] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        argv = [verb, str(path)]
        if verb == "trim":
            argv += ["--free-rank", "1", "--out", str(tmp_path / "out.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: term 0 generator 1: {error}") and "Traceback" not in err

    def test_every_written_file_reverifies(self, tmp_path):
        mod_path = tmp_path / "m.json"
        res_path = tmp_path / "r.json"
        self.run("random", "--p", "3", "--r", "1", "--dim", "3", "--seed", "5", "--out", str(mod_path))
        assert self.run("build", str(mod_path), "--m", "2", "--out", str(res_path)) == 0
        assert self.run("verify", str(res_path), "--m", "2") == 0


# (p, r, m) of the trivial resolutions that the benchmark's verify workload reads
VERIFY_INPUTS = ((2, 3, 5), (3, 2, 20), (5, 2, 7))


@pytest.fixture(scope="module")
def verify_workload_objects():
    return [
        complex_to_obj(trivial_resolution(Group(p, r), m).complex, m=m)
        for p, r, m in VERIFY_INPUTS
    ]


def test_certificate_of_a_read_complex_forms_no_norm(monkeypatch, tmp_path):
    # a complex file without tags; free-up-to counts regular orbits
    path = tmp_path / "c.json"
    obj = complex_to_obj(trivial_resolution(Group(3, 2), 4).complex, m=4)
    del obj["tags"]
    save_obj(path, obj)
    loaded = complex_from_obj(load_obj(path))
    assert loaded.complex.tags is None

    def no_norm(m):
        raise AssertionError("a norm matrix was formed")

    monkeypatch.setattr(modules, "norm_matrix", no_norm)
    report = certify_resolution(loaded.complex, m=loaded.m)
    assert report.ok, report.first_failure()
    assert "free-up-to: PASS (m = 4)" in report.lines()


def test_certificate_of_a_tagged_file_reads_freeness_off_its_tags(monkeypatch, tmp_path):
    path = tmp_path / "c.json"
    save_obj(path, complex_to_obj(trivial_resolution(Group(3, 2), 4).complex, m=4))
    loaded = complex_from_obj(load_obj(path))
    assert loaded.complex.tags is not None

    def no_free_rank(m):
        raise AssertionError("free_rank was called")

    monkeypatch.setattr(complexes, "free_rank", no_free_rank)
    report = certify_resolution(loaded.complex, m=loaded.m)
    assert report.ok, report.first_failure()
    assert report.lines()[-2:] == ["tags: PASS", "free-up-to: PASS (m = 4)"]


def test_each_distinct_part_is_parsed_once(monkeypatch, tmp_path):
    path = tmp_path / "c.json"
    save_obj(path, complex_to_obj(trivial_resolution(Group(2, 3), 3).complex, m=3))
    obj = load_obj(path)
    stored = json.loads(path.read_text())["tags"]
    distinct = {json.dumps(part) for tag in stored for part in tag}
    calls = []
    init = Subgroup.__init__
    monkeypatch.setattr(Subgroup, "__init__", lambda self, *a: calls.append(a) or init(self, *a))
    tags = complex_from_obj(obj).complex.tags
    assert len(calls) == len(distinct) < sum(len(tag) for tag in stored)
    assert [[_part_rows(part) for part in tag.parts] for tag in tags] == stored


def assert_stdlib_bytes(obj):
    """canonical_dumps and, for a complex, its stored digest match the stdlib
    encoder; the file written from obj reads back to its own bytes."""
    text = canonical_dumps(obj)
    assert text == ref_canonical_dumps(obj)
    if "meta" in obj:
        payload = {k: v for k, v in obj.items() if k != "meta"}
        expected = hashlib.sha256(ref_canonical_dumps(payload).encode()).hexdigest()
        assert obj["meta"]["digest"] == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obj.json"
        save_obj(path, obj)
        loaded = load_obj(path)
        assert canonical_dumps(loaded).encode() == path.read_bytes()
        if "meta" in obj:
            assert complex_from_obj(loaded).digest_expected == obj["meta"]["digest"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**63), 2**63 - 1),
    lambda inner: st.lists(inner, max_size=5)
    # U+007F is ASCII, but only the stdlib encoder escapes it (see permres.io)
    | st.dictionaries(st.text(st.characters(max_codepoint=0x7E), max_size=4), inner, max_size=5),
    max_leaves=40,
)


def _k_plus_ke(group, m):
    """A tagged resolution of k (+) kE: the good resolution of k plus kE in degree 0."""
    f = free_module(group, 1)
    extra = tag_complex(single_term_complex(f, identity_map(f)))
    return direct_sum_complexes(good_resolution(trivial_module(group, 1), m).complex, extra)


class TestTrimInput:
    """``permres trim`` on invalid inputs: exit 2 naming the input's failed check."""

    V4 = Group(2, 2)

    def trim(self, tmp_path, obj):
        path = tmp_path / "in.json"
        path.write_text(canonical_dumps(obj))
        out_path = tmp_path / "out.json"
        return main(["trim", str(path), "--free-rank", "1", "--out", str(out_path)]), out_path

    def test_a_non_resolution_input_exits_2(self, tmp_path, capsys):
        obj = complex_to_obj(_k_plus_ke(self.V4, 2), m=2)
        assert len(obj["terms"]) == 9
        obj["differentials"][1][0] ^= 1
        code, out_path = self.trim(tmp_path, obj)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: input is not a resolution: maps-intertwine FAIL (degree 2:")
        assert not out_path.exists()

    @pytest.mark.parametrize("tagged", [True, False], ids=["tagged", "untagged"])
    def test_a_degree_0_term_that_is_not_a_module_exits_2(self, tmp_path, capsys, tagged):
        obj = complex_to_obj(_k_plus_ke(self.V4, 0), m=0)
        dense = ref_densify(obj)
        dim = obj["terms"][0]["dim"]
        # a 3-cycle: a permutation whose order does not divide 2, written as
        # a dense matrix and as an index vector
        cycle = np.zeros((dim, dim), dtype=np.int64)
        cycle[[1, 2, 0] + list(range(3, dim)), range(dim)] = 1
        dense["terms"][0]["generators"][0] = cycle.ravel().tolist()
        obj["terms"][0]["perms"][0] = [1, 2, 0] + list(range(3, dim))
        for form in (dense, obj):
            if not tagged:
                del form["tags"]
            code, out_path = self.trim(tmp_path, form)
            err = capsys.readouterr().err
            assert code == 2, err
            assert "order does not divide p" in err and "internal" not in err
            assert not out_path.exists()

    def test_an_unaugmented_input_exits_2(self, tmp_path, capsys):
        c = _k_plus_ke(self.V4, 0)
        code, out_path = self.trim(tmp_path, complex_to_obj(Complex(c.terms, c.diffs), m=0))
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == "error: complex is not augmented\n"
        assert not out_path.exists()

    def test_a_target_that_is_not_block_diagonal_exits_2(self, tmp_path, capsys):
        # kE first and k last: the trailing dims of the target meet kE's orbits
        f = free_module(self.V4, 1)
        extra = tag_complex(single_term_complex(f, identity_map(f)))
        k = good_resolution(trivial_module(self.V4, 1), 0).complex
        code, out_path = self.trim(tmp_path, complex_to_obj(direct_sum_complexes(extra, k), m=0))
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == (
            "error: target generator 1 is not block-diagonal for the trailing free block\n"
        )
        assert not out_path.exists()

    def test_stored_tags_are_checked(self, tmp_path, capsys):
        obj = complex_to_obj(_k_plus_ke(self.V4, 2), m=2)
        assert obj["tags"][3] != obj["tags"][4]
        obj["tags"][3], obj["tags"][4] = obj["tags"][4], obj["tags"][3]
        code, out_path = self.trim(tmp_path, obj)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: input is not a resolution: tags FAIL (degree 3:")
        assert not out_path.exists()

    def test_a_wrong_degree_0_tag_is_checked(self, tmp_path, capsys):
        obj = complex_to_obj(_k_plus_ke(self.V4, 2), m=2)
        assert obj["tags"][0] == [[], []]
        # one free part and four copies of k: the same dim, a different tag
        obj["tags"][0] = [[]] + [[[1, 0], [0, 1]]] * 4
        code, out_path = self.trim(tmp_path, obj)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(
            "error: input is not a resolution: tags FAIL "
            "(degree 0: recognized tag differs from the stored tag)"
        )
        assert not out_path.exists()

    def test_stored_tags_are_not_recognized_again(self, tmp_path, capsys, monkeypatch):
        res = _k_plus_ke(self.V4, 0)
        assert res.top == 4
        calls = []
        # every walk goes through ``recognize_all``: ``recognize`` looks it up
        # in ``permutation``, the lift and the certificate in ``complexes``
        for owner in (complexes, permutation):
            recognize_all = owner.recognize_all
            monkeypatch.setattr(
                owner,
                "recognize_all",
                lambda ms, f=recognize_all: calls.extend(m.dim for m in ms) or f(ms),
            )
        code, out_path = self.trim(tmp_path, complex_to_obj(res, m=0))
        assert code == 0, capsys.readouterr().err
        # degree 0 once for its parts, then each term of the output in its certificate
        assert len(calls) == 1 + 5
        out = complex_from_obj(load_obj(out_path)).complex
        assert out.tags[1:] == res.tags[1:]

    def test_a_successful_trim_certifies_once(self, tmp_path, capsys, monkeypatch):
        obj = complex_to_obj(_k_plus_ke(self.V4, 0), m=0)
        calls = []
        certify = resolution.certify_resolution
        monkeypatch.setattr(
            resolution, "certify_resolution", lambda *a, **k: calls.append(1) or certify(*a, **k)
        )
        code, _ = self.trim(tmp_path, obj)
        assert code == 0, capsys.readouterr().err
        assert len(calls) == 1

    def test_a_failure_on_a_valid_input_stays_internal(self, tmp_path, capsys, monkeypatch):
        obj = complex_to_obj(_k_plus_ke(self.V4, 0), m=0)
        certify = resolution.certify_resolution
        reports = iter([CertReport((CheckResult("exact", False, "dim H_0 = 1"),))])
        # the output's certificate fails; the input's own certificate is real
        monkeypatch.setattr(
            resolution, "certify_resolution", lambda *a, **k: next(reports, None) or certify(*a, **k)
        )
        code, out_path = self.trim(tmp_path, obj)
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("internal error: trimmed complex not exact:")
        assert not out_path.exists()


class TestCanonicalBytes:
    def test_acceptance_6_outputs(self):
        for p, r, dim, m, seed in END_TO_END_CORPUS:
            res = good_resolution(random_module(p, r, dim, seed), m)
            assert_stdlib_bytes(complex_to_obj(res.complex, m=res.m))

    def test_verify_workload_files(self, verify_workload_objects, tmp_path):
        for k, obj in enumerate(verify_workload_objects):
            assert_stdlib_bytes(obj)
            path = tmp_path / f"c{k}.json"
            save_obj(path, obj)
            assert path.read_bytes() == ref_canonical_dumps(obj).encode()

    def test_modules_and_descriptors(self):
        for p, r, dim, seed in [(2, 1, 3, 1), (3, 2, 4, 2), (2, 3, 2, 3), (5, 1, 0, 4)]:
            assert_stdlib_bytes(module_to_obj(random_module(p, r, dim, seed)))
        for group in (Group(2, 2), Group(3, 2)):
            d = PermutationDescriptor(group, all_subgroups(group))
            assert_stdlib_bytes(descriptor_to_obj(d))

    @given(json_values)
    @settings(max_examples=200, deadline=None)
    def test_json_values(self, value):
        assert canonical_dumps(value) == ref_canonical_dumps(value)


class TestMatrixParse:
    @pytest.mark.parametrize(
        "p, dim, entries",
        [
            (2, 1, [True]),
            (2, 1, [False]),
            (3, 1, [1.0]),
            (3, 1, [-1]),
            (3, 1, [3]),
            (5, 1, [2**64]),
            (5, 1, [-(2**64)]),
            (5, 1, [2**63]),
            (3, 1, [None]),
            (3, 1, ["1"]),
            (3, 2, [0, 1, True, 1]),
            (3, 2, [1, 0, 0, 1.0]),
            (3, 2, [1, 0, [0], 1]),
            (3, 2, [1, 0, 2**64, True]),
            (3, 2, [1, 0, 7, -1]),
            (3, 2, [1, 0, 0]),
            (3, 2, {"entries": [1, 0, 0, 1]}),
            (2, 0, []),
            (2, 0, [0]),
            (2, 0, [True]),
            (3, 2, [1, 0, 0, 1]),
            (3, 2, [2, 1, 0, 2]),
        ],
    )
    def test_error_text_matches_the_entry_walk(self, p, dim, entries):
        obj = {"p": p, "rank": 1, "dim": dim, "generators": [entries]}
        expected = ref_unflat_error(p, dim, dim, entries, "module generator 1")
        if expected is None:
            mod = module_from_obj(obj)
            assert mod.action[0].a.reshape(-1).tolist() == entries
        else:
            with pytest.raises(FormatError) as exc:
                module_from_obj(obj)
            assert str(exc.value) == expected

    def test_differential_errors_name_the_differential(self):
        obj = complex_to_obj(trivial_resolution(Group(3, 1), 2).complex, m=2)
        diff = obj["differentials"][1]
        diff[len(diff) // 2] = 2**64
        expected = ref_unflat_error(3, 3, 3, diff, "differential 2")
        with pytest.raises(FormatError) as exc:
            complex_from_obj(obj)
        assert str(exc.value) == expected


def _deep(depth):
    return "[" * depth + "]" * depth


class TestHostileJson:
    """Inputs that the stdlib parser or the canonical encoder cannot take."""

    @pytest.fixture
    def complex_obj(self):
        return complex_to_obj(good_resolution(trivial_module(Group(2, 1), 1), 0).complex, m=0)

    @pytest.mark.parametrize("verb", ["verify", "info"])
    def test_deeply_nested_terms_exit_2(self, tmp_path, capsys, verb):
        path = tmp_path / "deep.json"
        path.write_text('{"p":2,"rank":1,"terms":' + _deep(100000) + "}")
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON") and "Traceback" not in err

    @pytest.mark.parametrize(
        "value, digest",
        [
            ([1, {"a": None, "b": True}], "ok"),
            (json.loads(_deep(300)), "MISMATCH (informational)"),
            (2**64, "MISMATCH (informational)"),
            (-(2**64), "MISMATCH (informational)"),
            ("\ud800", "MISMATCH (informational)"),
            ("caf\u00e9", "MISMATCH (informational)"),
            (0.5, "ok"),
            (1e16, "MISMATCH (informational)"),
            (float("nan"), "MISMATCH (informational)"),
        ],
        ids=[
            "control", "nested-300", "2^64", "-2^64", "lone-surrogate", "non-ascii",
            "plain-float", "exponent-float", "nan",
        ],
    )
    @pytest.mark.parametrize("keep_meta", [True, False], ids=["meta", "no-meta"])
    def test_unknown_keys_only_move_the_digest(
        self, tmp_path, capsys, complex_obj, value, digest, keep_meta
    ):
        # meta.digest is the stdlib encoder's digest of the payload.  orjson
        # refuses or re-encodes all but the two control values, so those read
        # MISMATCH; a missing meta.digest never matches a digest that cannot
        # be computed
        complex_obj["extra"] = value
        del complex_obj["meta"]
        if keep_meta:
            stdlib_digest = hashlib.sha256(ref_canonical_dumps(complex_obj).encode()).hexdigest()
            complex_obj["meta"] = {"m": 0, "digest": stdlib_digest}
        else:
            digest = "MISMATCH (informational)"
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(complex_obj))
        assert main(["verify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"digest: {digest}" in lines
        assert lines[-1] == "VERDICT: PASS"
        assert main(["info", str(path)]) == 0

    @pytest.mark.parametrize(
        "value", [json.loads(_deep(300)), 2**64, "\ud800"], ids=["nested-300", "2^64", "lone-surrogate"]
    )
    @pytest.mark.parametrize("verb", ["verify", "info"])
    def test_unencodable_entries_exit_2(self, tmp_path, capsys, complex_obj, value, verb):
        complex_obj["differentials"][0][0] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(complex_obj))
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: differential 1: entry ") and "Traceback" not in err


def plain(value):
    """value with each leaf array of ``load_obj`` back as a list, checking
    that every array is a writable, non-empty, one-dimensional int64 array."""
    if isinstance(value, np.ndarray):
        assert value.dtype == np.int64 and value.ndim == 1 and value.size
        assert value.flags.writeable
        return value.tolist()
    if isinstance(value, list):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except (PermresError, ValueError) as exc:
        # FormatError and the reference reader's error compare by text alone
        return "error", str(exc)


def _from_obj(obj):
    kind = detect_kind(obj)
    reader = {"module": module_from_obj, "descriptor": descriptor_from_obj}
    return reader.get(kind, complex_from_obj)(obj)


def _cli_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_reads_like_json_load(path):
    """load_obj gives what json.load gives, with lists for arrays, or the same
    error; so do the file's module, descriptor or complex and the CLI."""
    got, want = _outcome(load_obj, path), _outcome(ref_load_obj, path)
    assert (got[0], plain(got[1])) == want
    if got[0] == "value" and isinstance(want[1], dict):
        assert _outcome(_from_obj, got[1]) == _outcome(_from_obj, want[1])
    for verb in ("info", "verify"):
        fast = _cli_outcome([verb, str(path)])
        with mock.patch.object(cli, "load_obj", ref_load_obj):
            assert fast == _cli_outcome([verb, str(path)])


def _tagged_complex_text(dense=False):
    """A small tagged complex, its terms written as index vectors or, as
    files were before them, as dense generators."""
    c = good_resolution(trivial_module(Group(3, 1), 1), 1).complex
    obj = complex_to_obj(c, m=1)
    return canonical_dumps(ref_densify(obj) if dense else obj)


def _complex_with(token, *where):
    """The canonical text of a small tagged complex with ``token`` written at
    the key path ``where``, in the dense form where that path needs it."""
    obj = json.loads(_tagged_complex_text(dense="generators" in where))
    node = obj
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = "@@"
    return canonical_dumps(obj).replace('"@@"', token)


# hostile lists: each must read as the stdlib reads it
HOSTILE_LISTS = [
    "[01]", "[1,,2]", "[,1]", "[1,]", "[ 1, 2 ]", "[1 ,2]", "[12345678901]",
    "[9999999999]", f"[{2**63}]", f"[{2**64}]", "[-1]", "[true]", "[1.0]",
    "[1e0]", "[1,-0]", "[]", "[[]]", "[1,[0]]", "[0]", "[2,1,0]", "[1" + ",1" * 30 + "]",
    "[" + "7" * 5000 + "]",
]
HOSTILE_PLACES = [
    ("differentials", 0),
    ("terms", 1, "generators", 0),
    ("terms", 1, "perms", 0),
    ("augmentation", "matrix"),
    ("tags", 1, 0),
    ("tags", 1),
    ("meta", "m"),
    ("meta", "digest"),
    ("terms", 0, "realize"),
    ("terms",),
]
HOSTILE_FILES = {
    "string-key": '{"a[1,2]b":[1,2],"c":"[3,4]"}',
    # U+0661 is a digit to the Python scanner's regex, not to the C scanner
    "non-ascii": '{"note":"caf\u00e9","x":[1,2],"y":[1\u0661]}',
    "backslash": '{"a":"\\\\\\"[1,2]","b":[1,2]}',
    "bom": '\ufeff{"a":[1,2]}',
    "crlf": '{"a":\r\n[1,2],\r\n"b":[3,}',
    "error-after-leaf": '{"a":[1,2],"b":[1,2}',
    "nested-32": "[" * 31 + "[1,2]" + "]" * 31,
    "nested-33": "[" * 32 + "[1,2]" + "]" * 32,
    # the C scanner reads about 990 levels, a Python one a third of that
    "nested-400": "[" * 399 + "[1,2]" + "]" * 399,
    "escaped-quote-then-nested-400": '["\\"",' + "[" * 400 + "]" * 400 + "]",
    "nested-100000": "[" * 100000 + "]" * 100000,
    "unterminated": "[1,2",
    "empty-module": '{"dim":0,"generators":[[]],"p":2,"rank":1}',
    "empty-perms-module": '{"dim":0,"p":2,"perms":[[]],"rank":1}',
    "module": canonical_dumps(module_to_obj(random_module(5, 2, 3, seed=4))),
    "perms-module": canonical_dumps(module_to_obj(free_module(Group(3, 2), 1))),
    "dense-complex": _tagged_complex_text(dense=True),
    "complex": _tagged_complex_text(),
    "descriptor": canonical_dumps(
        descriptor_to_obj(PermutationDescriptor(Group(2, 2), all_subgroups(Group(2, 2))))
    ),
    "descriptor-bad-row": '{"p":2,"parts":[[[1,0],[0,1]],[[1,1,0]],[[0,1]]],"rank":2}',
    "descriptor-not-rref": '{"p":3,"parts":[[[1,2]],[[2,1]]],"rank":2}',
}

# the bytes a mutation may write: JSON syntax, digits and a few strays
MUTATION_CHARS = '0123456789,[]{}":-.e tn\\é\r\n'


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    """One file path that each hypothesis example overwrites."""
    return tmp_path_factory.mktemp("reader") / "h.json"


class TestReader:
    """``load_obj`` against the stdlib ``json.load`` reader it replaced."""

    @pytest.mark.parametrize("token", HOSTILE_LISTS, ids=lambda t: t[:24])
    @pytest.mark.parametrize("where", HOSTILE_PLACES, ids=lambda w: "-".join(map(str, w)))
    def test_hostile_lists_in_a_complex(self, tmp_path, token, where):
        path = tmp_path / "c.json"
        path.write_text(_complex_with(token, *where))
        assert_reads_like_json_load(path)

    @pytest.mark.parametrize("text", HOSTILE_FILES.values(), ids=HOSTILE_FILES.keys())
    def test_hostile_files(self, tmp_path, text):
        path = tmp_path / "f.json"
        path.write_text(text, encoding="utf-8", newline="")
        assert_reads_like_json_load(path)

    def test_canonical_lists_are_arrays(self, tmp_path):
        path = tmp_path / "c.json"
        for dense, key in ((True, "generators"), (False, "perms")):
            path.write_text(_tagged_complex_text(dense))
            obj = load_obj(path)
            assert isinstance(obj["differentials"][0], np.ndarray)
            assert isinstance(obj["terms"][0][key][0], np.ndarray)
            assert obj["tags"][0] == [[]]

    @given(
        json_values,
        st.booleans(),
        st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 2), st.sampled_from(MUTATION_CHARS)),
            max_size=3,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_json_values(self, scratch_file, value, compact, edits):
        text = json.dumps(value, separators=(",", ":") if compact else None)
        scratch_file.write_text(_mutate(text, edits), encoding="utf-8", newline="")
        assert_reads_like_json_load(scratch_file)

    @given(
        st.booleans(),
        st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 2), st.sampled_from(MUTATION_CHARS)),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_mutated_complex_files(self, scratch_file, dense, edits):
        text = _mutate(_tagged_complex_text(dense), edits)
        scratch_file.write_text(text, encoding="utf-8", newline="")
        assert_reads_like_json_load(scratch_file)

    def test_edit_in_place_then_save(self, verify_workload_objects, tmp_path):
        # the benchmark's negative control: change one differential entry
        path, out = tmp_path / "c.json", tmp_path / "edited.json"
        save_obj(path, verify_workload_objects[1])
        obj, ref = load_obj(path), ref_load_obj(path)
        for o in (obj, ref):
            diff = o["differentials"][7]
            diff[11] = (diff[11] + 1) % o["p"]
        save_obj(out, obj)
        assert out.read_text() == ref_canonical_dumps(ref)
        assert main(["verify", str(out)]) == 2

    def test_readers_take_arrays_over(self, tmp_path):
        # the matrices share the arrays, so the arrays turn read-only
        for name, obj, read in [
            ("c.json", json.loads(_tagged_complex_text()), complex_from_obj),
            ("m.json", module_to_obj(random_module(5, 2, 3, seed=4)), module_from_obj),
        ]:
            save_obj(tmp_path / name, obj)
            obj = load_obj(tmp_path / name)
            leaf = obj["differentials"][0] if "differentials" in obj else obj["generators"][0]
            leaf[0] = leaf[0]
            read(obj)
            with pytest.raises(ValueError, match="read-only"):
                leaf[0] = leaf[0]

    def test_arrays_are_freed_at_once(self, tmp_path):
        # a reference cycle through the scanner would keep them until gc runs
        path = tmp_path / "c.json"
        for dense, key in ((True, "generators"), (False, "perms")):
            path.write_text(_tagged_complex_text(dense))
            gc.disable()
            try:
                obj = load_obj(path)
                refs = [weakref.ref(obj["differentials"][0]), weakref.ref(obj["terms"][1][key][0])]
                del obj
                assert [r() for r in refs] == [None, None]
            finally:
                gc.enable()


def _mutate(text, edits):
    """text with each (position, 0 insert | 1 replace | 2 delete, char) applied."""
    for pos, op, char in edits:
        pos %= len(text) + 1
        if op == 0:
            text = text[:pos] + char + text[pos:]
        elif pos < len(text):
            text = text[:pos] + (char if op == 1 else "") + text[pos + 1 :]
    return text
