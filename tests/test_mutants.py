"""The patcher tools/mutants.py applies each catalogued mutant with."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


class TestPatch:
    def test_one_match_is_patched(self):
        text = "a = 1\nb = 2\n"
        assert mutants.patch(text, "b = 2", "b = 3", "f.py") == "a = 1\nb = 3\n"

    @pytest.mark.parametrize("text, count", [("a = 1\n", 0), ("b = 2\nb = 2\n", 2)])
    def test_zero_or_two_matches_are_refused(self, text, count):
        with pytest.raises(mutants.PatchError, match=f"f.py: 'b = 2' occurs {count} times"):
            mutants.patch(text, "b = 2", "b = 3", "f.py")

    @pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.killer.split("::")[-1])
    def test_each_catalogued_mutant_matches_its_file_once(self, mutant):
        assert mutants.mutated(ROOT, mutant).count(mutant.new) == 1
