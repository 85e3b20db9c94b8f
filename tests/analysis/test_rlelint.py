"""Tests for ``rlelint`` — every rule must fire on a fixture and stay
silent on its near-miss, and the shipped source tree must be clean."""

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import (
    Violation,
    check_source,
    create_rules,
    iter_python_files,
    lint_paths,
    rule_codes,
)
from repro.analysis.lint.baseline import load_baseline, partition, write_baseline
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.rules import is_hot_path
from repro.analysis.lint.suppressions import parse_suppressions
from repro.errors import LintError

PACKAGE_ROOT = Path(repro.__file__).parent


def codes(source, rel_path="core/fixture.py", **kwargs):
    """Rule codes firing on a dedented snippet under a hot-path name."""
    return [v.rule for v in check_source(textwrap.dedent(source), rel_path, **kwargs)]


class TestRegistry:
    def test_all_rules_registered(self):
        assert rule_codes() == (
            "RLE001",
            "RLE002",
            "RLE003",
            "RLE004",
            "RLE005",
            "RLE101",
            "RLE102",
            "RLE103",
            "RLE104",
            "RLE105",
        )

    def test_unknown_select_rejected(self):
        with pytest.raises(LintError):
            create_rules(["RLE999"])

    def test_select_subset(self):
        rules = create_rules(["RLE002"])
        assert [r.code for r in rules] == ["RLE002"]

    def test_concurrency_group_alias(self):
        rules = create_rules(["concurrency"])
        assert [r.code for r in rules] == [
            "RLE101",
            "RLE102",
            "RLE103",
            "RLE104",
            "RLE105",
        ]

    def test_group_mixes_with_codes(self):
        rules = create_rules(["concurrency", "RLE002"])
        assert [r.code for r in rules] == [
            "RLE002",
            "RLE101",
            "RLE102",
            "RLE103",
            "RLE104",
            "RLE105",
        ]


class TestRLE001BareAssert:
    def test_invariant_assert_fires(self):
        assert codes("assert end >= start, 'runs normalized'") == ["RLE001"]

    def test_plain_condition_fires(self):
        assert codes("assert len(surviving) % 2 == 0") == ["RLE001"]

    def test_isinstance_narrowing_exempt(self):
        assert codes("assert isinstance(row, RLERow)") == []

    def test_is_not_none_narrowing_exempt(self):
        assert codes("assert spec.n_runs is not None") == []

    def test_conjunction_of_narrowing_exempt(self):
        assert codes("assert isinstance(a, Run) and b is not None") == []

    def test_mixed_conjunction_fires(self):
        assert codes("assert isinstance(a, Run) and a.end >= a.start") == ["RLE001"]


class TestRLE002TypedExceptions:
    def test_value_error_fires(self):
        assert codes("def f(x):\n    raise ValueError('bad')\n") == ["RLE002"]

    def test_runtime_error_fires(self):
        assert codes("raise RuntimeError") == ["RLE002"]

    def test_typed_exception_exempt(self):
        snippet = """
        from repro.errors import GeometryError
        def f():
            raise GeometryError('widths differ')
        """
        assert codes(snippet) == []

    def test_bare_reraise_exempt(self):
        snippet = """
        def f():
            try:
                g()
            except Exception:
                raise
        """
        assert codes(snippet) == []

    def test_applies_outside_hot_paths_too(self):
        assert codes("raise ValueError('x')", rel_path="workloads/maps.py") == [
            "RLE002"
        ]


class TestRLE003HotPathDecompression:
    def test_to_bits_call_fires_on_hot_path(self):
        assert codes("bits = row.to_bits()") == ["RLE003"]

    def test_unpackbits_fires(self):
        assert codes("px = np.unpackbits(buf)") == ["RLE003"]

    def test_bitmap_import_fires(self):
        assert codes("from repro.rle.bitmap import runs_to_bits") == ["RLE003"]

    def test_bitmap_module_import_fires(self):
        assert codes("import repro.rle.bitmap") == ["RLE003"]

    def test_bitmap_submodule_from_import_fires(self):
        assert codes("from repro.rle import bitmap") == ["RLE003"]

    def test_packbits_module_import_fires(self):
        assert codes("import repro.rle.packbits") == ["RLE003"]

    def test_packbits_from_import_fires(self):
        assert codes("from repro.rle.packbits import encode_row") == ["RLE003"]

    def test_packbits_submodule_from_import_fires(self):
        assert codes("from repro.rle import packbits") == ["RLE003"]

    def test_cold_path_exempt(self):
        assert codes("bits = row.to_bits()", rel_path="rle/row.py") == []
        assert codes("bits = row.to_bits()", rel_path="inspection/defects.py") == []

    def test_allowlisted_module_exempt(self):
        assert codes("bits = row.to_bits()", rel_path="core/verifier.py") == []

    def test_ops_glob_is_hot(self):
        assert codes("bits = row.to_bits()", rel_path="rle/ops2d.py") == ["RLE003"]

    def test_classification(self):
        assert is_hot_path("core/batched.py")
        assert is_hot_path("systolic/array.py")
        assert is_hot_path("rle/ops.py")
        assert not is_hot_path("rle/image.py")
        assert not is_hot_path("analysis/report.py")


class TestRLE004Int32Guard:
    def test_unguarded_int32_fires(self):
        snippet = """
        import numpy as np
        def load(n):
            return np.zeros(n, dtype=np.int32)
        """
        assert codes(snippet) == ["RLE004"]

    def test_batched_guard_pattern_exempt(self):
        snippet = """
        import numpy as np
        def load(max_coord, n):
            dtype = np.int32 if max_coord < 2**31 - 1 else np.int64
            return np.zeros(n, dtype=dtype)
        """
        assert codes(snippet) == []

    def test_iinfo_guard_exempt(self):
        snippet = """
        import numpy as np
        def load(max_coord, n):
            dtype = np.int32 if max_coord <= np.iinfo(np.int32).max else np.int64
            return np.zeros(n, dtype=dtype)
        """
        assert codes(snippet) == []

    def test_guard_in_other_function_does_not_help(self):
        snippet = """
        import numpy as np
        def guard(max_coord):
            return max_coord < 2**31 - 1
        def load(n):
            return np.zeros(n, dtype=np.int32)
        """
        assert codes(snippet) == ["RLE004"]

    def test_shipped_batched_module_is_clean(self):
        source = (PACKAGE_ROOT / "core" / "batched.py").read_text()
        assert [
            v.rule for v in check_source(source, "core/batched.py")
        ] == []


class TestRLE005MutableState:
    def test_mutable_default_fires(self):
        assert codes("def f(acc=[]):\n    pass\n") == ["RLE005"]

    def test_kwonly_mutable_default_fires(self):
        assert codes("def f(*, acc={}):\n    pass\n") == ["RLE005"]

    def test_mutable_call_default_fires(self):
        assert codes("def f(acc=list()):\n    pass\n") == ["RLE005"]

    def test_none_default_exempt(self):
        assert codes("def f(acc=None):\n    pass\n") == []

    def test_module_level_lowercase_dict_fires(self):
        assert codes("shared_cache = {}") == ["RLE005"]

    def test_upper_case_constant_exempt(self):
        assert codes("LOOKUP = {1: 'a'}") == []

    def test_dunder_exempt(self):
        assert codes("__all__ = ['f']") == []

    def test_final_annotation_exempt(self):
        assert codes("from typing import Final\ntable: Final = {}\n") == []

    def test_annotated_lowercase_fires(self):
        assert codes("table: dict = {}") == ["RLE005"]

    def test_class_attribute_not_module_state(self):
        snippet = """
        class Acc:
            items = []
        """
        assert codes(snippet) == []

    def test_tuple_module_constant_exempt(self):
        assert codes("phases = ('normalize', 'xor')") == []


class TestSuppressions:
    def test_line_suppression(self):
        assert codes("raise ValueError('x')  # rlelint: disable=RLE002") == []

    def test_line_suppression_wrong_code_keeps_firing(self):
        assert codes("raise ValueError('x')  # rlelint: disable=RLE001") == ["RLE002"]

    def test_line_suppression_all(self):
        assert codes("raise ValueError('x')  # rlelint: disable=all") == []

    def test_multiple_codes(self):
        snippet = "assert x and raise_later  # rlelint: disable=RLE001,RLE002\n"
        assert codes(snippet) == []

    def test_file_level_suppression(self):
        snippet = """
        # rlelint: disable-file=RLE002
        def f():
            raise ValueError('one')
        def g():
            raise RuntimeError('two')
        """
        assert codes(snippet) == []

    def test_directive_in_string_is_not_a_directive(self):
        snippet = 's = "# rlelint: disable=RLE002"\nraise ValueError("x")\n'
        assert codes(snippet) == ["RLE002"]

    def test_malformed_directive_rejected(self):
        with pytest.raises(LintError):
            parse_suppressions("x = 1  # rlelint: disable=bogus\n", "f.py")

    def test_empty_directive_rejected(self):
        with pytest.raises(LintError):
            parse_suppressions("x = 1  # rlelint: disable=\n", "f.py")

    def test_can_be_ignored_for_audits(self):
        found = check_source(
            "raise ValueError('x')  # rlelint: disable=RLE002",
            "core/fixture.py",
            respect_suppressions=False,
        )
        assert [v.rule for v in found] == ["RLE002"]


class TestBaseline:
    def _violations(self):
        return check_source("raise ValueError('grandfathered')", "core/old.py")

    def test_roundtrip(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        found = self._violations()
        assert write_baseline(baseline_path, found) == 1
        baseline = load_baseline(baseline_path)
        new, grandfathered = partition(found, baseline)
        assert new == [] and len(grandfathered) == 1

    def test_new_violations_not_covered(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, self._violations())
        baseline = load_baseline(baseline_path)
        other = check_source("raise ValueError('new site')", "core/new.py")
        new, grandfathered = partition(other, baseline)
        assert len(new) == 1 and grandfathered == []

    def test_fingerprint_survives_line_drift(self):
        a = check_source("raise ValueError('same')", "core/x.py")[0]
        b = check_source("# moved\n\nraise ValueError('same')", "core/x.py")[0]
        assert a.line != b.line
        assert a.fingerprint() == b.fingerprint()

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(LintError):
            load_baseline(bad)
        bad.write_text('{"version": 99}')
        with pytest.raises(LintError):
            load_baseline(bad)


class TestEngine:
    def test_shipped_tree_is_lint_clean(self):
        report = lint_paths([PACKAGE_ROOT])
        assert report.files_checked > 50
        assert report.violations == [], "\n".join(
            v.format() for v in report.violations
        )
        assert report.baselined == []

    def test_lint_paths_accepts_strings(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("raise ValueError('x')\n")
        report = lint_paths([str(target)])
        assert report.files_checked == 1
        assert [v.rule for v in report.violations] == ["RLE002"]

    def test_iter_python_files_rejects_missing(self, tmp_path):
        with pytest.raises(LintError):
            iter_python_files([tmp_path / "nope"])

    def test_iter_python_files_rejects_non_python(self, tmp_path):
        other = tmp_path / "data.txt"
        other.write_text("hi")
        with pytest.raises(LintError):
            iter_python_files([other])

    def test_syntax_error_rejected(self):
        with pytest.raises(LintError):
            check_source("def broken(:\n", "core/broken.py")

    def test_directory_classification_matches_package_layout(self, tmp_path):
        hot = tmp_path / "core"
        hot.mkdir()
        (hot / "engine.py").write_text("bits = row.to_bits()\n")
        cold = tmp_path / "workloads"
        cold.mkdir()
        (cold / "gen.py").write_text("bits = row.to_bits()\n")
        report = lint_paths([tmp_path])
        assert [v.path for v in report.violations] == ["core/engine.py"]

    def test_violation_json_shape(self):
        violation = check_source("raise ValueError('x')", "core/z.py")[0]
        payload = violation.to_json()
        assert payload["rule"] == "RLE002"
        assert payload["path"] == "core/z.py"
        assert isinstance(payload["fingerprint"], str)


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert lint_main([str(PACKAGE_ROOT)]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "core"
        bad.mkdir()
        (bad / "bad.py").write_text("raise ValueError('x')\n")
        assert lint_main([str(tmp_path)]) == 1
        assert "RLE002" in capsys.readouterr().out

    def test_config_error_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "missing")]) == 2
        assert "rlelint: error" in capsys.readouterr().err

    def test_select_filters_rules(self, tmp_path, capsys):
        bad = tmp_path / "core"
        bad.mkdir()
        (bad / "bad.py").write_text("raise ValueError('x')\nshared = []\n")
        assert lint_main([str(tmp_path), "--select", "RLE005"]) == 1
        out = capsys.readouterr().out
        assert "RLE005" in out and "RLE002" not in out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "core"
        bad.mkdir()
        (bad / "bad.py").write_text("raise ValueError('x')\n")
        assert lint_main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert [v["rule"] for v in payload["violations"]] == ["RLE002"]

    def test_baseline_workflow(self, tmp_path, capsys):
        bad = tmp_path / "core"
        bad.mkdir()
        (bad / "bad.py").write_text("raise ValueError('x')\n")
        baseline = tmp_path / "baseline.json"
        assert (
            lint_main([str(tmp_path), "--baseline", str(baseline), "--write-baseline"])
            == 0
        )
        assert baseline.exists()
        capsys.readouterr()
        assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 0
        assert "baselined" in capsys.readouterr().out
        # a new violation still fails against the old baseline
        (bad / "worse.py").write_text("raise RuntimeError('y')\n")
        assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 1

    def test_write_baseline_requires_path(self, capsys):
        assert lint_main([str(PACKAGE_ROOT), "--write-baseline"]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in rule_codes():
            assert code in out


class TestReproCliIntegration:
    def test_repro_lint_subcommand(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", str(PACKAGE_ROOT)]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_repro_lint_list_rules(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "--list-rules"]) == 0
        assert "RLE003" in capsys.readouterr().out
