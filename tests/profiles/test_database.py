"""Unit tests for the profile database."""

import json
import os

import pytest

from repro.driver.compiler import train
from repro.frontend import compile_sources
from repro.interp import run_program
from repro.profiles import (
    ProfileDatabase,
    ProfileFormatError,
    instrument_program,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, "fixtures", "golden_profiles.json",
)

SOURCES = {
    "m": """
func tick(n) {
    var s = 0;
    while (n > 0) { s = s + n; n = n - 1; }
    return s;
}
func main() { return tick(5) + tick(3); }
"""
}


def collect():
    program = compile_sources(SOURCES)
    table = instrument_program(program)
    result = run_program(program)
    return ProfileDatabase.from_probe_counts(table, result.probe_counts)


class TestCollection:
    def test_entry_counts(self):
        database = collect()
        assert database.profile_for("tick").entry_count == 2
        assert database.profile_for("main").entry_count == 1

    def test_hottest_routines(self):
        database = collect()
        names = [name for name, _ in database.hottest_routines(2)]
        assert names[0] == "tick"

    def test_call_site_weights(self):
        database = collect()
        weights = database.call_site_weights()
        main_sites = {k: v for k, v in weights.items() if k[0] == "main"}
        assert sum(main_sites.values()) == 2

    def test_total_call_count(self):
        database = collect()
        assert database.total_call_count() == 2


class TestMergeAndPersistence:
    def test_merge_accumulates(self):
        a = collect()
        b = collect()
        a.merge(b)
        assert a.profile_for("tick").entry_count == 4
        assert a.run_count == 2

    def test_merge_structural_change_takes_newest(self):
        a = collect()
        b = collect()
        b.profile_for("tick").checksum = 12345  # simulate changed code
        old_entry = b.profile_for("tick").entry_count
        a.merge(b)
        assert a.profile_for("tick").entry_count == old_entry

    def test_json_round_trip(self):
        database = collect()
        restored = ProfileDatabase.from_json(database.to_json())
        for name in database.routines:
            original = database.profile_for(name)
            copy = restored.profile_for(name)
            assert copy.block_counts == original.block_counts
            assert copy.edge_counts == original.edge_counts
            assert copy.call_counts == original.call_counts
            assert copy.entry_count == original.entry_count

    def test_save_and_load(self, tmp_path):
        database = collect()
        path = os.path.join(str(tmp_path), "profile.json")
        database.save(path)
        loaded = ProfileDatabase.load(path)
        assert len(loaded) == len(database)

    def test_bad_version_rejected(self):
        payload = json.dumps({"version": 99, "routines": {}})
        with pytest.raises(ValueError):
            ProfileDatabase.from_json(payload)


class TestFiltering:
    def test_filtered_to_labels(self):
        database = collect()
        profile = database.profile_for("tick")
        surviving = set(list(profile.block_counts)[:2])
        filtered = profile.filtered_to_labels(surviving)
        assert set(filtered.block_counts) == surviving
        assert all(
            f in surviving and t in surviving
            for f, t in filtered.edge_counts
        )


class TestFormatVersioning:
    def test_version_1_files_migrate(self):
        modern = json.loads(collect().to_json())
        legacy = {
            "version": 1,
            "run_count": modern["run_count"],
            "routines": {
                name: {
                    key: value
                    for key, value in entry.items()
                    if key not in ("last_epoch", "stale")
                }
                for name, entry in modern["routines"].items()
            },
        }
        database = ProfileDatabase.from_json(json.dumps(legacy))
        assert database.epoch == 0
        for profile in database.routines.values():
            assert profile.last_epoch == 0
            assert not profile.stale
        # Saving rewrites it as the current version.
        assert json.loads(database.to_json())["version"] == 2

    def test_unknown_version_raises_structured_error(self):
        with pytest.raises(ProfileFormatError) as info:
            ProfileDatabase.from_json(
                json.dumps({"version": 99, "routines": {}})
            )
        assert info.value.found == 99
        assert info.value.expected == 2

    def test_missing_version_rejected(self):
        with pytest.raises(ProfileFormatError) as info:
            ProfileDatabase.from_json(json.dumps({"routines": {}}))
        assert info.value.found is None

    def test_garbage_rejected(self):
        with pytest.raises(ProfileFormatError):
            ProfileDatabase.from_json("{not json")
        with pytest.raises(ProfileFormatError):
            ProfileDatabase.from_json(json.dumps([1, 2, 3]))


class TestGoldenFormat:
    """``tests/fixtures/golden_profiles.json`` freezes the version-2 text.

    ``trained`` is ``train`` over the fixture's sources with
    ``training_runs`` runs; ``streamed`` carries a non-zero ``epoch``, a
    decay of 0.25, fractional counts, ``last_epoch`` 3 and one ``stale``
    routine.  A file in either shape must load and save back to the very
    same bytes, and training must still write the trained text.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("row", ["trained", "streamed"])
    def test_loads_and_saves_the_same_bytes(self, golden, row):
        text = golden[row]
        assert ProfileDatabase.from_json(text).to_json() == text

    def test_streamed_fields_survive_loading(self, golden):
        database = ProfileDatabase.from_json(golden["streamed"])
        assert database.epoch == 4
        assert database.decay == 0.25
        assert database.routines["tick"].stale
        assert database.routines["tick"].last_epoch == 3
        assert not database.routines["main"].stale

    def test_training_writes_the_golden_text(self, golden):
        database = train(golden["sources"], [None] * golden["training_runs"])
        assert database.to_json() == golden["trained"]
