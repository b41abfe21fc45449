import json
import math
import re

import numpy as np
import pytest
from scipy import stats

from metasep import dsp, taskgen
from metasep.taskgen import SynthSpec
from oracles import measured_snr_db


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    manifest = taskgen.synth_corpus(SynthSpec(n_accents=4, speakers_per_accent=3),
                                    seed=11, out_dir=out)
    return taskgen.ingest(manifest)


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_manifest_row_count(tmp_path):
    manifest = taskgen.synth_corpus(SynthSpec(4, 3), seed=0, out_dir=tmp_path)
    entries = taskgen.read_manifest(manifest)
    assert len(entries) == 12
    assert len({(e["accent"], e["speaker_id"]) for e in entries}) == 12


def test_manifest_write_failing_midway_keeps_the_previous_file(tmp_path):
    """A manifest write that fails on its second entry leaves the manifest
    that was there as it was, and no temporary file beside it."""
    path = tmp_path / "manifest.jsonl"
    entry = {"accent": "a", "speaker_id": "s0", "path": "audio/a.wav", "samples": 8}
    taskgen.write_manifest(path, [entry])
    before = path.read_bytes()
    with pytest.raises(KeyError):
        taskgen.write_manifest(path, [dict(entry, speaker_id="s1"), {"accent": "b"}])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.jsonl"]


def test_synth_same_accent_speakers_are_distinct(tmp_path):
    taskgen.synth_corpus(SynthSpec(1, 2), seed=3, out_dir=tmp_path)
    a = dsp.read_wav(tmp_path / "audio" / "synth00_spk00.wav").samples
    b = dsp.read_wav(tmp_path / "audio" / "synth00_spk01.wav").samples
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.99


def test_synth_deterministic_bytes(tmp_path):
    m1 = taskgen.synth_corpus(SynthSpec(2, 2), seed=5, out_dir=tmp_path / "a")
    m2 = taskgen.synth_corpus(SynthSpec(2, 2), seed=5, out_dir=tmp_path / "b")
    assert m1.read_text() == m2.read_text()
    for entry in taskgen.read_manifest(m1):
        b1 = (tmp_path / "a" / entry["path"]).read_bytes()
        b2 = (tmp_path / "b" / entry["path"]).read_bytes()
        assert b1 == b2


def test_synth_rejects_single_speaker():
    with pytest.raises(taskgen.TaskGenError):
        SynthSpec(3, 1)


@pytest.mark.parametrize("kwargs,refusal", [
    ({"n_accents": 0}, "n_accents must be an integer of at least 1, got 0"),
    ({"n_accents": -1}, "n_accents must be an integer of at least 1, got -1"),
    ({"n_accents": 2.0}, "n_accents must be an integer of at least 1, got 2.0"),
    ({"speakers_per_accent": True},
     "speakers_per_accent must be an integer of at least 2, got True"),
])
def test_synth_spec_refuses_degenerate_values(kwargs, refusal):
    spec = {"n_accents": 2, "speakers_per_accent": 2, **kwargs}
    with pytest.raises(taskgen.TaskGenError, match=f"^{re.escape(refusal)}$"):
        SynthSpec(**spec)


# ---------------------------------------------------------------------------
# ingest


def test_ingest_keeps_three_segment_speakers(small_corpus):
    assert small_corpus.accents() == ["synth00", "synth01", "synth02", "synth03"]
    for accent in small_corpus.accents():
        assert len(small_corpus.eligible_speakers(accent)) == 3
        for spk in small_corpus.eligible_speakers(accent):
            segs = small_corpus.speakers[accent][spk]
            assert len(segs) == 3  # 12.5 s -> 3 segments, tail dropped
            assert all(len(s) == dsp.SEGMENT_SAMPLES for s in segs)


def test_ingest_drops_short_speaker_with_reason(tmp_path):
    manifest = taskgen.synth_corpus(SynthSpec(1, 2), seed=7, out_dir=tmp_path)
    short = dsp.Waveform(np.sin(np.arange(8 * dsp.SAMPLE_RATE) * 0.1) * 0.3)
    dsp.write_wav(tmp_path / "audio" / "short.wav", short)
    entries = taskgen.read_manifest(manifest)
    entries.append({"accent": "synth00", "speaker_id": "shorty",
                    "path": "audio/short.wav", "samples": len(short)})
    taskgen.write_manifest(manifest, entries)
    corpus = taskgen.ingest(manifest)
    assert "shorty" not in corpus.speakers["synth00"]
    assert any("shorty" in i and "2 segments" in i for i in corpus.issues)


def test_ingest_reports_missing_file(tmp_path):
    """A path with no file behind it, a directory included, is dropped."""
    manifest = taskgen.synth_corpus(SynthSpec(1, 2), seed=8, out_dir=tmp_path)
    entries = taskgen.read_manifest(manifest)
    entries.append({"accent": "synth00", "speaker_id": "ghost",
                    "path": "audio/ghost.wav", "samples": 0})
    entries.append({"accent": "synth00", "speaker_id": "folder", "path": "audio", "samples": 0})
    taskgen.write_manifest(manifest, entries)
    corpus = taskgen.ingest(manifest)
    assert corpus.issues == [f"synth00/ghost: missing file {tmp_path / 'audio' / 'ghost.wav'}",
                             f"synth00/folder: missing file {tmp_path / 'audio'}"]


def _write_bad_audio(root, name: str) -> str:
    """Writes the unreadable audio file `name` under root/audio; returns its
    manifest path."""
    good = root / "audio" / "synth00_spk00.wav"
    wav = good.read_bytes()
    data = {"empty.wav": b"", "truncated.wav": wav[:20],
            "not-riff.wav": b"ID3 an mp3 tag, not a RIFF header",
            # the fmt chunk's size field claims 2 GiB
            "bad-chunk.wav": wav[:16] + b"\xff\xff\xff\x7f" + wav[20:],
            "cut-in-audio.wav": wav[:len(wav) // 2]}.get(name)
    if data is None:  # a raw float64 file, the task archive's segment format
        dsp.write_raw(root / "audio" / name, dsp.read_wav(good))
    else:
        (root / "audio" / name).write_bytes(data)
    return f"audio/{name}"


@pytest.mark.parametrize("name,reason", [
    ("empty.wav", "not a WAV file (cut short or a bad chunk size)"),
    ("truncated.wav", "not a WAV file (cut short or a bad chunk size)"),
    ("not-riff.wav", "not a WAV file (file does not start with RIFF id)"),
    ("bad-chunk.wav", "not a WAV file (cut short or a bad chunk size)"),
    ("raw.f64", "not a WAV file (file does not start with RIFF id)"),
    ("cut-in-audio.wav", "header promises 100000 samples (200000 bytes), file has 99978 "
                         "bytes of audio"),
], ids=["empty", "truncated", "not-riff", "bad-chunk", "raw-f64", "cut-in-audio"])
def test_ingest_drops_an_unreadable_file_with_its_reason(tmp_path, name, reason):
    manifest = taskgen.synth_corpus(SynthSpec(1, 2), seed=8, out_dir=tmp_path)
    rel = _write_bad_audio(tmp_path, name)
    entries = taskgen.read_manifest(manifest)
    entries.append({"accent": "synth00", "speaker_id": "hollow", "path": rel, "samples": 0})
    taskgen.write_manifest(manifest, entries)
    corpus = taskgen.ingest(manifest)
    assert sorted(corpus.speakers["synth00"]) == ["synth00_spk00", "synth00_spk01"]
    assert corpus.issues == [f"synth00/hollow: {tmp_path / rel}: {reason}"]


# one malformed line, the third of a manifest whose second is blank
MALFORMED_MANIFEST_LINES = {
    "list": ("[1, 2]", "line 3: [1, 2] is not an object with string accent, speaker_id "
                       "and path"),
    "no-speaker": ('{"accent": "a"}', 'line 3: {"accent": "a"} is not an object with '
                                      'string accent, speaker_id and path'),
    "path-number": ('{"accent": "a", "speaker_id": "s", "path": 5}',
                    'line 3: {"accent": "a", "speaker_id": "s", "path": 5} is not an '
                    'object with string accent, speaker_id and path'),
    "not-json": ("not json", "line 3: not JSON (Expecting value)"),
    "nested": ("[" * 10**5, "line 3: not JSON (maximum recursion depth exceeded while decoding "
                            "a JSON array from a unicode string)"),
}


def write_malformed_manifest(path, kind: str) -> None:
    good = {"accent": "a", "speaker_id": "s0", "path": "audio/s0.wav"}
    path.write_text(json.dumps(good) + "\n\n" + MALFORMED_MANIFEST_LINES[kind][0] + "\n")


@pytest.mark.parametrize("kind", MALFORMED_MANIFEST_LINES)
def test_read_manifest_refuses_a_malformed_line_by_number(tmp_path, kind):
    manifest = tmp_path / "manifest.jsonl"
    write_malformed_manifest(manifest, kind)
    refusal = f"{manifest} {MALFORMED_MANIFEST_LINES[kind][1]}"
    with pytest.raises(taskgen.TaskGenError, match=f"^{re.escape(refusal)}$"):
        taskgen.ingest(manifest)


def test_ingest_rejects_duplicate_speaker_rows(tmp_path):
    manifest = taskgen.synth_corpus(SynthSpec(1, 2), seed=9, out_dir=tmp_path)
    entries = taskgen.read_manifest(manifest)
    taskgen.write_manifest(manifest, entries + [entries[0]])
    with pytest.raises(taskgen.TaskGenError, match=r"line 3: duplicate \(accent, speaker\)"):
        taskgen.ingest(manifest)


def test_synth_corpus_roundtrips_through_ingest(tmp_path, small_corpus):
    # re-synthesizing with the same seed and re-ingesting gives identical segments
    manifest = taskgen.synth_corpus(SynthSpec(4, 3), seed=11, out_dir=tmp_path)
    again = taskgen.ingest(manifest)
    for accent in small_corpus.accents():
        for spk in small_corpus.eligible_speakers(accent):
            for s1, s2 in zip(small_corpus.speakers[accent][spk], again.speakers[accent][spk]):
                assert np.array_equal(s1.samples, s2.samples)


# ---------------------------------------------------------------------------
# task construction


def test_task_structure_and_counts(small_corpus):
    task_sets = taskgen.build_accent_task_sets(small_corpus, None, seed=1)
    assert [ts.accent for ts in task_sets] == small_corpus.accents()
    for ts in task_sets:
        assert ts.tq == math.comb(3, 2) == 3
        for task in ts.tasks:
            assert task.snr_grid.shape == (3, 3)  # 9 mixtures
            assert 0 <= task.support_index < 9
            assert len(task.query_indices) == 4
            si, sj = divmod(task.support_index, 3)
            for q in task.query_indices:
                qi, qj = divmod(q, 3)
                assert qi != si and qj != sj


def test_expected_task_count_examples():
    seg = dsp.Waveform(np.ones(8))
    for n_speakers, tq in ((12, 66), (2, 1), (5, 10), (30, 66)):  # capped at 12 speakers
        corpus = taskgen.Corpus({"acc": {f"spk{k:02d}": [seg] * 3 for k in range(n_speakers)}})
        (ts,) = taskgen.build_accent_task_sets(corpus, None, seed=0)
        assert ts.tq == tq


def test_speaker_cap_at_twelve(tmp_path):
    manifest = taskgen.synth_corpus(SynthSpec(1, 14), seed=13, out_dir=tmp_path)
    corpus = taskgen.ingest(manifest)
    (ts,) = taskgen.build_accent_task_sets(corpus, None, seed=2)
    speakers = {s for t in ts.tasks for s in t.speakers}
    assert len(speakers) == 12
    assert ts.tq == 66


def test_mixture_snr_recomputed_from_stored_audio(small_corpus):
    task_sets = taskgen.build_accent_task_sets(small_corpus, None, seed=3)
    task = task_sets[0].tasks[0]
    for k in range(9):
        pair = task.mixture(k)
        i, j = divmod(k, 3)
        got = measured_snr_db(pair.sources[0], pair.sources[1])
        assert abs(got - task.snr_grid[i, j]) <= 1e-9
        assert 0.0 <= task.snr_grid[i, j] <= 5.0


def test_build_is_deterministic_and_order_free(small_corpus):
    a = taskgen.build_accent_task_sets(small_corpus, None, seed=4)
    b = taskgen.build_accent_task_sets(small_corpus, None, seed=4)
    for ts1, ts2 in zip(a, b):
        for t1, t2 in zip(ts1.tasks, ts2.tasks):
            assert t1.speakers == t2.speakers
            assert np.array_equal(t1.snr_grid, t2.snr_grid)
            assert t1.support_index == t2.support_index
            assert t1.noise_seed == t2.noise_seed
    c = taskgen.build_accent_task_sets(small_corpus, None, seed=5)
    assert any(t1.support_index != t2.support_index or
               not np.array_equal(t1.snr_grid, t2.snr_grid)
               for ts1, ts2 in zip(a, c) for t1, t2 in zip(ts1.tasks, ts2.tasks))


def test_accent_with_one_speaker_excluded_with_warning(small_corpus):
    crippled = taskgen.Corpus({
        "solo": {"only": small_corpus.speakers["synth00"]["synth00_spk00"]},
        "synth01": small_corpus.speakers["synth01"],
    })
    with pytest.warns(UserWarning, match="solo"):
        sets = taskgen.build_accent_task_sets(crippled, None, seed=6)
    assert [ts.accent for ts in sets] == ["synth01"]


def test_noisy_mixture_is_deterministic(small_corpus):
    task = taskgen.build_accent_task_sets(small_corpus, None, seed=7)[0].tasks[0]
    a = task.mixture(task.support_index, noisy=True)
    b = task.mixture(task.support_index, noisy=True)
    assert np.array_equal(a.mixture.samples, b.mixture.samples)
    clean = task.mixture(task.support_index)
    assert not np.array_equal(a.mixture.samples, clean.mixture.samples)
    noise_snr_db = measured_snr_db(clean.mixture, a.mixture.samples - clean.mixture.samples)
    assert dsp.NOISE_SNR_RANGE_DB[0] <= noise_snr_db <= dsp.NOISE_SNR_RANGE_DB[1]


# ---------------------------------------------------------------------------
# split


def test_split_disjoint_and_counted():
    split = taskgen.split_accents([f"a{i}" for i in range(10)], seed=1, counts=(6, 2, 2))
    assert len(split.train) == 6 and len(split.dev) == 2 and len(split.test) == 2
    assert not (set(split.train) & set(split.test))


def test_split_default_for_large_corpora():
    split = taskgen.split_accents([f"a{i:03d}" for i in range(130)], seed=2)
    assert (len(split.train), len(split.dev), len(split.test)) == (92, 19, 19)


@pytest.mark.parametrize("n", [123, 124, 130])
def test_split_default_places_every_accent_once(n):
    accents = [f"a{i:03d}" for i in range(n)]
    split = taskgen.split_accents(accents, seed=3)
    assert sorted(split.all_accents()) == accents
    assert (len(split.dev), len(split.test)) == (19, 19)


def test_split_default_keeps_the_paper_split_on_123_accents():
    accents = [f"a{i:03d}" for i in range(123)]
    assert taskgen.split_accents(accents, seed=4) == taskgen.split_accents(
        accents, seed=4, counts=(85, 19, 19))


def test_split_rejects_overlap():
    with pytest.raises(taskgen.TaskGenError):
        taskgen.SplitSpec(train=["x"], dev=["x"], test=["y"])


def test_split_rejects_oversized_counts():
    with pytest.raises(taskgen.TaskGenError, match=r"must place all 2 accents, but place 4$"):
        taskgen.split_accents(["a", "b"], seed=0, counts=(2, 1, 1))


@pytest.mark.parametrize("counts", [
    (3, 0, -1), (-1, 2, 3), (2.5, 1, 1), (2.0, 1, 1), (True, 1, 1), ("2", 1, 1),
    (np.int64(2), 1, 1), (2, 1), (2, 1, 1, 0),
])
def test_split_rejects_counts_that_are_not_three_non_negative_ints(counts):
    with pytest.raises(taskgen.TaskGenError, match="split counts .* must be three non-negative"):
        taskgen.split_accents([f"a{i}" for i in range(10)], seed=0, counts=counts)


# ---------------------------------------------------------------------------
# proportional sampling


def test_batch_probabilities_proportional_to_tq():
    # tq = {2, 6} -> set probabilities {0.25, 0.75}: exact by uniform pooling
    sets = _fake_sets({"acc_a": 2, "acc_b": 6})
    counts = {"acc_a": 0, "acc_b": 0}
    n = 4000
    for i in range(n):
        (task,) = taskgen.sample_task_batch(sets, b=1, seed=i)
        counts[task.accent] += 1
    assert counts["acc_a"] / n == pytest.approx(0.25, abs=0.03)


def test_single_set_takes_all_draws():
    sets = _fake_sets({"only": 4})
    batch = taskgen.sample_task_batch(sets, b=3, seed=0)
    assert all(t.accent == "only" for t in batch)


def test_batch_without_replacement_within_batch():
    sets = _fake_sets({"a": 3, "b": 3})
    batch = taskgen.sample_task_batch(sets, b=6, seed=1)
    assert len({id(t) for t in batch}) == 6


def test_batch_rejects_oversized_request():
    sets = _fake_sets({"a": 2})
    with pytest.raises(taskgen.TaskGenError):
        taskgen.sample_task_batch(sets, b=3, seed=0)


def test_sampling_chi_square_over_ten_thousand_draws():
    sets = _fake_sets({"one": 1, "two": 2, "three": 3})
    counts = {"one": 0, "two": 0, "three": 0}
    draws = 10000
    for i in range(draws):
        (task,) = taskgen.sample_task_batch(sets, b=1, seed=100000 + i)
        counts[task.accent] += 1
    observed = [counts["one"], counts["two"], counts["three"]]
    expected = [draws / 6, 2 * draws / 6, 3 * draws / 6]
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.01


def _fake_sets(tq_by_accent):
    rng = np.random.default_rng(0)
    sets = []
    for accent, tq in tq_by_accent.items():
        tasks = []
        for _ in range(tq):
            seg = [rng.normal(size=64) for _ in range(3)]
            tasks.append(taskgen.MetaTask(
                accent=accent, speakers=("x", "y"),
                segments_a=tuple(seg), segments_b=tuple(s + 1.0 for s in seg),
                seg_indices_a=(0, 1, 2), seg_indices_b=(0, 1, 2),
                snr_grid=np.full((3, 3), 2.0), support_index=4, noise_seed=7))
        sets.append(taskgen.AccentTaskSet(accent=accent, tasks=tasks))
    return sets


# ---------------------------------------------------------------------------
# archive round-trip


def test_task_archive_roundtrip_bit_exact(small_corpus, tmp_path):
    split = taskgen.split_accents(small_corpus.accents(), seed=1, counts=(2, 1, 1))
    task_sets = taskgen.build_accent_task_sets(small_corpus, split, seed=9)
    taskgen.write_task_archive(tmp_path, task_sets, split, seed=9)

    loaded_sets, loaded_split, meta = taskgen.load_task_archive(tmp_path)
    assert meta["seed"] == 9
    assert loaded_split.train == split.train
    assert loaded_split.test == split.test
    assert [ts.accent for ts in loaded_sets] == [ts.accent for ts in task_sets]
    for ts1, ts2 in zip(task_sets, loaded_sets):
        for t1, t2 in zip(ts1.tasks, ts2.tasks):
            assert t1.speakers == t2.speakers
            assert t1.support_index == t2.support_index
            assert t1.query_indices == t2.query_indices
            assert t1.noise_seed == t2.noise_seed
            for k in range(9):
                p1, p2 = t1.mixture(k), t2.mixture(k)
                assert np.array_equal(p1.mixture.samples, p2.mixture.samples)
            pn1 = t1.mixture(t1.support_index, noisy=True)
            pn2 = t2.mixture(t2.support_index, noisy=True)
            assert np.array_equal(pn1.mixture.samples, pn2.mixture.samples)


def test_tasks_share_read_only_segments(small_corpus, tmp_path):
    split = taskgen.split_accents(small_corpus.accents(), seed=1, counts=(2, 1, 1))
    built = taskgen.build_accent_task_sets(small_corpus, split, seed=9)
    taskgen.write_task_archive(tmp_path, built, split, seed=9)
    loaded, _, _ = taskgen.load_task_archive(tmp_path)
    for task_sets in (built, loaded):
        first, second = task_sets[0].tasks[:2]  # both pair the accent's first speaker
        assert first.speakers[0] == second.speakers[0]
        k = second.seg_indices_a.index(first.seg_indices_a[0])
        assert np.shares_memory(first.segments_a[0], second.segments_a[k])
        with pytest.raises(ValueError, match="read-only"):
            first.segments_a[0][0] = 0.0


def test_task_archive_rejects_edited_query_indices(small_corpus, tmp_path):
    split = taskgen.split_accents(small_corpus.accents(), seed=1, counts=(2, 1, 1))
    task_sets = taskgen.build_accent_task_sets(small_corpus, split, seed=9)
    index_path = taskgen.write_task_archive(tmp_path, task_sets, split, seed=9)
    taskgen.load_task_archive(tmp_path)  # as written, it loads
    index = json.loads(index_path.read_text())
    task = index["accents"][0]["tasks"][0]
    assert task["query"] == list(task_sets[0].tasks[0].query_indices)
    task["query"] = sorted(set(range(9)) - set(task["query"]) - {task["support"]})[:4]
    index_path.write_text(json.dumps(index))
    with pytest.raises(taskgen.TaskGenError, match="query indices .* segment-disjoint"):
        taskgen.load_task_archive(tmp_path)


def test_query_indices_follow_the_support_index():
    (ts,) = _fake_sets({"acc": 1})
    task = ts.tasks[0]
    assert task.query_indices == (0, 2, 6, 8)  # support 4 is the grid's center
    task.support_index = 0
    assert task.query_indices == (4, 5, 7, 8)
    with pytest.raises(AttributeError):
        task.query_indices = (0, 1, 2, 3)


def test_task_archive_rejects_foreign_dir(tmp_path):
    (tmp_path / "tasks.json").write_text(json.dumps({"format": "other"}))
    with pytest.raises(taskgen.TaskGenError):
        taskgen.load_task_archive(tmp_path)


@pytest.mark.parametrize("index,reason", [
    ("nope", "Expecting value: line 1 column 1 (char 0)"),
    ('{"format": "metasep-tasks-v1"}', "no key 'accents'"),
    ("[]", "its tasks.json is not a metasep-tasks-v1 index"),
    (None, "no key 'seg_files_a'"),
], ids=["not-json", "no-accents", "list", "task-without-seg-files-a"])
def test_task_archive_refuses_a_malformed_index_by_name(tmp_path, index, reason):
    """A tasks.json that is not JSON, not an object or lacks a key (None: the
    written index without its first task's seg_files_a) is refused with a
    TaskGenError that names the archive."""
    split = taskgen.SplitSpec(train=["acc"], dev=[], test=[])
    path = taskgen.write_task_archive(tmp_path, _fake_sets({"acc": 1}), split, seed=0)
    if index is None:
        index = json.loads(path.read_text())
        del index["accents"][0]["tasks"][0]["seg_files_a"]
        index = json.dumps(index)
    path.write_text(index)
    refusal = f"{tmp_path}: not a metasep task archive ({reason})"
    with pytest.raises(taskgen.TaskGenError, match=f"^{re.escape(refusal)}$"):
        taskgen.load_task_archive(tmp_path)
