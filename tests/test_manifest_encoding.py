"""The run manifest's per-entry encoding: same bytes, one encode per entry."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.robustness.runner as runner_mod
from repro.robustness.runner import MANIFEST_VERSION, CampaignRunner, RunManifest


def expected_text(tasks):
    """The manifest text as one whole-document indented dump writes it."""
    return (
        json.dumps(
            {
                "version": MANIFEST_VERSION,
                "tasks": {name: tasks[name] for name in sorted(tasks)},
            },
            indent=2,
        )
        + "\n"
    )


def saved_text(tmp_path, tasks):
    manifest = RunManifest(tmp_path / "m.json")
    manifest.tasks = dict(tasks)
    manifest.save()
    return manifest.path.read_text()


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=10,
)
entries = st.dictionaries(st.text(max_size=5), json_values, max_size=4)


class TestByteIdentity:
    def test_empty_manifest(self, tmp_path):
        assert saved_text(tmp_path, {}) == expected_text({})

    def test_edge_values(self, tmp_path):
        tasks = {
            "zeta": {"status": "done", "payload": None},
            "alpha": {"empty_obj": {}, "empty_list": [], "nested": [{}, [[]]]},
            "ünï-çødé ✓": {"text": "naïve — “quoted” 漢字"},
            'line\nbreak "q" back\\slash': {
                "error": 'multi\nline "quoted" \\ text\r\t',
            },
            "floats": {"values": [0.1, -2.5, 1e300, 1e-300, 3.0, -0.0]},
            "empty": {},
        }
        assert saved_text(tmp_path, tasks) == expected_text(tasks)

    @settings(max_examples=60, deadline=None)
    @given(tasks=st.dictionaries(st.text(max_size=6), entries, max_size=4))
    def test_arbitrary_entries(self, tmp_path_factory, tasks):
        tmp_path = tmp_path_factory.mktemp("manifest")
        assert saved_text(tmp_path, tasks) == expected_text(tasks)


class TestCacheValidity:
    def test_rerecorded_name_gets_fresh_bytes(self, tmp_path):
        manifest = RunManifest(tmp_path / "m.json")
        manifest.record("task", {"status": "quarantined", "error": "boom"})
        manifest.record("other", {"status": "done"})
        retried = {"status": "done", "error": None}
        manifest.record("task", retried)
        expected = {"other": {"status": "done"}, "task": retried}
        assert manifest.path.read_text() == expected_text(expected)

    def test_assigned_tasks_get_fresh_bytes(self, tmp_path):
        manifest = RunManifest(tmp_path / "m.json")
        manifest.record("a", {"status": "done", "payload": 1})
        manifest.record("b", {"status": "done", "payload": 2})
        replaced = {"a": {"status": "quarantined", "payload": None}}
        manifest.tasks = replaced
        manifest.save()
        assert manifest.path.read_text() == expected_text(replaced)

    def test_loaded_manifest_saves_the_same_bytes(self, tmp_path):
        manifest = RunManifest(tmp_path / "m.json")
        manifest.record("b", {"status": "done", "payload": {"x": [1.5, None]}})
        manifest.record("a", {"status": "quarantined", "error": "e\nf"})
        before = manifest.path.read_bytes()
        loaded = RunManifest.load(manifest.path)
        loaded.save()
        assert loaded.path.read_bytes() == before


class TestEncodeCount:
    def test_each_record_encodes_one_entry(self, tmp_path, monkeypatch):
        """Guards against the whole manifest being re-encoded per save."""
        encoded = []
        real = runner_mod._encode_entry

        def counting(name, entry):
            encoded.append(name)
            return real(name, entry)

        monkeypatch.setattr(runner_mod, "_encode_entry", counting)
        tasks = [(f"case-{i:03d}", lambda i=i: i) for i in range(50)]
        result = CampaignRunner(manifest_path=tmp_path / "m.json").run(tasks)
        assert result.all_ok
        assert encoded == [name for name, _ in tasks]
        assert json.loads((tmp_path / "m.json").read_text())["tasks"].keys() == {
            name for name, _ in tasks
        }
