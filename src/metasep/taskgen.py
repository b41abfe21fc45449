"""Accent task sets and meta tasks from an ingested corpus.

A meta task is built from one same-accent speaker pair: 3 segments per
speaker mixed pairwise into a 3x3 grid of 9 mixtures, one of which becomes
the one-shot support set while the 4 mixtures sharing no segment with it
form the query set. An accent task set holds one task per unordered speaker
pair (speakers capped at 12), so its task quantity is C(min(n, 12), 2).

All randomness flows from a single run seed; per-accent child streams are
derived by hashing (seed, accent) so construction order never matters.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from . import dsp
from .dsp import MixturePair, Waveform

MAX_SPEAKERS_PER_ACCENT = 12
SEGMENTS_PER_SPEAKER = 3
MIX_SNR_RANGE_DB = (0.0, 5.0)
GRID = SEGMENTS_PER_SPEAKER * SEGMENTS_PER_SPEAKER
SYNTH_PEAK = 0.45               # peak amplitude of each synthetic utterance
SYNTH_UTTERANCE_SECONDS = 12.5  # 3 segments per speaker, the tail dropped


class TaskGenError(ValueError):
    pass


def _child_rng(seed: int, *scope) -> np.random.Generator:
    key = ":".join(str(s) for s in (seed,) + scope)
    digest = hashlib.sha256(key.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


# ---------------------------------------------------------------------------
# manifest and corpus


def write_manifest(path, entries) -> None:
    with dsp.atomic_open(path) as f:
        for e in entries:
            f.write(json.dumps({"accent": e["accent"], "speaker_id": e["speaker_id"],
                                "path": e["path"], "samples": e["samples"]}) + "\n")


def read_manifest(path) -> list[dict]:
    """The manifest's entries, one JSON object per non-blank line with string
    "accent", "speaker_id" and "path". A malformed line or a repeated
    (accent, speaker) pair is refused with the manifest and its 1-based line."""
    entries, seen = [], set()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise TaskGenError(f"{path}: not UTF-8 text ({err})") from None
    for n, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            e = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as err:  # not JSON, or nested too deep
            raise TaskGenError(f"{path} line {n}: not JSON ({getattr(err, 'msg', err)})") from None
        if not isinstance(e, dict) or not all(
                isinstance(e.get(k), str) for k in ("accent", "speaker_id", "path")):
            raise TaskGenError(f"{path} line {n}: {line} is not an object with string "
                               f"accent, speaker_id and path")
        key = (e["accent"], e["speaker_id"])
        if key in seen:
            raise TaskGenError(f"{path} line {n}: duplicate (accent, speaker) pair {key}")
        seen.add(key)
        entries.append(e)
    return entries


@dataclass
class Corpus:
    """Segmented utterances grouped accent -> speaker -> list of segments."""

    speakers: dict[str, dict[str, list[Waveform]]]
    issues: list[str] = field(default_factory=list)

    def accents(self) -> list[str]:
        return sorted(self.speakers)

    def eligible_speakers(self, accent: str) -> list[str]:
        return sorted(s for s, segs in self.speakers.get(accent, {}).items()
                      if len(segs) >= SEGMENTS_PER_SPEAKER)


def ingest(manifest_path) -> Corpus:
    """Load, validate, and segment every manifest utterance.

    Problem files (missing, not a readable WAV, not 8 kHz mono 16-bit,
    shorter than one segment) and speakers with fewer than 3 segments are
    dropped, each with a reason in ``corpus.issues``. An empty result is an
    error.
    """
    manifest_path = Path(manifest_path)
    entries = read_manifest(manifest_path)
    speakers: dict[str, dict[str, list[Waveform]]] = {}
    issues: list[str] = []
    for e in entries:
        path = Path(e["path"])
        if not path.is_absolute():
            path = manifest_path.parent / path
        tag = f"{e['accent']}/{e['speaker_id']}"
        if not path.is_file():
            issues.append(f"{tag}: missing file {path}")
            continue
        try:
            segments = dsp.segment(dsp.read_wav(path))
        except ValueError as err:
            issues.append(f"{tag}: {err}")
            continue
        if len(segments) < SEGMENTS_PER_SPEAKER:
            issues.append(f"{tag}: only {len(segments)} segments, a meta task "
                          f"needs {SEGMENTS_PER_SPEAKER}; dropped")
            continue
        for seg in segments:  # the tasks of every pair with this speaker share them
            seg.samples.flags.writeable = False
        speakers.setdefault(e["accent"], {})[e["speaker_id"]] = segments
    if not speakers:
        raise TaskGenError("ingest produced an empty corpus: " + "; ".join(issues))
    return Corpus(speakers, issues)


# ---------------------------------------------------------------------------
# tasks


@dataclass
class MetaTask:
    """One speaker pair's 3x3 mixture grid with its support/query split."""

    accent: str
    speakers: tuple[str, str]
    segments_a: tuple[np.ndarray, ...]
    segments_b: tuple[np.ndarray, ...]
    seg_indices_a: tuple[int, ...]
    seg_indices_b: tuple[int, ...]
    snr_grid: np.ndarray            # (3, 3); entry [i, j] mixes a-seg i with b-seg j
    support_index: int              # flat grid index, row-major
    noise_seed: int

    def __post_init__(self):
        self.snr_grid = np.asarray(self.snr_grid, dtype=np.float64)
        if self.snr_grid.shape != (SEGMENTS_PER_SPEAKER, SEGMENTS_PER_SPEAKER):
            raise TaskGenError(f"snr grid must be 3x3, got {self.snr_grid.shape}")
        if len(self.segments_a) != SEGMENTS_PER_SPEAKER or len(self.segments_b) != SEGMENTS_PER_SPEAKER:
            raise TaskGenError("a meta task needs exactly 3 segments per speaker")
        if not 0 <= self.support_index < GRID:
            raise TaskGenError(f"support index {self.support_index} outside the 9-mixture grid")

    @property
    def query_indices(self) -> tuple[int, ...]:
        """The 4 mixtures that share no segment with the support mixture."""
        si, sj = divmod(self.support_index, SEGMENTS_PER_SPEAKER)
        return tuple(i * SEGMENTS_PER_SPEAKER + j
                     for i in range(SEGMENTS_PER_SPEAKER)
                     for j in range(SEGMENTS_PER_SPEAKER)
                     if i != si and j != sj)

    def mixture(self, index: int, noisy: bool = False) -> MixturePair:
        i, j = divmod(index, SEGMENTS_PER_SPEAKER)
        pair = dsp.mix_at_snr(Waveform(self.segments_a[i]), Waveform(self.segments_b[j]),
                              float(self.snr_grid[i, j]))
        if noisy:
            rng = _child_rng(self.noise_seed, "noise", index)
            pair = dsp.add_noise(pair, float(rng.uniform(*dsp.NOISE_SNR_RANGE_DB)),
                                 seed=int(rng.integers(2 ** 62)))
        return pair

    def support_pair(self, noisy: bool = False) -> MixturePair:
        return self.mixture(self.support_index, noisy=noisy)

    def query_pairs(self, noisy: bool = False) -> list[MixturePair]:
        return [self.mixture(k, noisy=noisy) for k in self.query_indices]


@dataclass
class AccentTaskSet:
    accent: str
    tasks: list[MetaTask]

    @property
    def tq(self) -> int:
        return len(self.tasks)


@dataclass
class SplitSpec:
    train: list[str]
    dev: list[str]
    test: list[str]

    def __post_init__(self):
        groups = [set(self.train), set(self.dev), set(self.test)]
        for i in range(3):
            for j in range(i + 1, 3):
                overlap = groups[i] & groups[j]
                if overlap:
                    raise TaskGenError(f"split groups overlap on accents {sorted(overlap)}")

    def all_accents(self) -> list[str]:
        return sorted(self.train) + sorted(self.dev) + sorted(self.test)


DEFAULT_SPLIT_COUNTS = (85, 19, 19)


def split_accents(accents, seed: int, counts: tuple[int, int, int] | None = None) -> SplitSpec:
    """Seeded random accent split. Without counts every accent is placed: the
    paper's 85/19/19 on 123 accents, any further accents going to train.
    Given counts must be three non-negative ints (train, dev, test) that
    place every accent."""
    accents = sorted(accents)
    if counts is None:
        if len(accents) >= sum(DEFAULT_SPLIT_COUNTS):
            _, n_dev, n_test = DEFAULT_SPLIT_COUNTS
        else:
            n_dev = n_test = max(1, len(accents) // 6)
        counts = (len(accents) - n_dev - n_test, n_dev, n_test)
    elif len(counts) != 3 or not all(dsp.is_int_at_least(c, 0) for c in counts):
        raise TaskGenError(f"split counts {tuple(counts)} must be three non-negative "
                           f"integers (train, dev, test)")
    elif sum(counts) != len(accents):
        raise TaskGenError(f"split counts {tuple(counts)} must place all {len(accents)} "
                           f"accents, but place {sum(counts)}")
    order = _child_rng(seed, "split").permutation(len(accents))
    picked = [accents[i] for i in order]
    n_train, n_dev, _ = counts
    return SplitSpec(train=sorted(picked[:n_train]),
                     dev=sorted(picked[n_train:n_train + n_dev]),
                     test=sorted(picked[n_train + n_dev:]))


def build_accent_task_sets(corpus: Corpus, split: SplitSpec | None, seed: int) -> list[AccentTaskSet]:
    """One task set per accent, in sorted accent order.

    Within an accent: speakers are capped at 12 by seeded choice, every
    unordered pair becomes one task, each task draws 3 segments per speaker,
    9 mixing SNRs uniform in [0, 5] dB, and a uniform support mixture.
    """
    accents = split.all_accents() if split is not None else corpus.accents()
    task_sets: list[AccentTaskSet] = []
    for accent in sorted(accents):
        eligible = corpus.eligible_speakers(accent)
        if len(eligible) < 2:
            warnings.warn(f"accent {accent!r} has {len(eligible)} eligible speakers; "
                          f"excluded (needs at least 2)")
            continue
        rng = _child_rng(seed, "accent", accent)
        if len(eligible) > MAX_SPEAKERS_PER_ACCENT:
            keep_idx = rng.choice(len(eligible), size=MAX_SPEAKERS_PER_ACCENT, replace=False)
            chosen = sorted(eligible[i] for i in keep_idx)
        else:
            chosen = eligible
        tasks = []
        for a, b in combinations(chosen, 2):
            segs_a = corpus.speakers[accent][a]
            segs_b = corpus.speakers[accent][b]
            idx_a = tuple(int(i) for i in rng.choice(len(segs_a), size=SEGMENTS_PER_SPEAKER,
                                                     replace=False))
            idx_b = tuple(int(i) for i in rng.choice(len(segs_b), size=SEGMENTS_PER_SPEAKER,
                                                     replace=False))
            snr = rng.uniform(*MIX_SNR_RANGE_DB, size=(SEGMENTS_PER_SPEAKER,
                                                       SEGMENTS_PER_SPEAKER))
            support = int(rng.integers(GRID))
            tasks.append(MetaTask(
                accent=accent,
                speakers=(a, b),
                segments_a=tuple(segs_a[i].samples for i in idx_a),
                segments_b=tuple(segs_b[i].samples for i in idx_b),
                seg_indices_a=idx_a,
                seg_indices_b=idx_b,
                snr_grid=snr,
                support_index=support,
                noise_seed=int(rng.integers(2 ** 62)),
            ))
        task_sets.append(AccentTaskSet(accent=accent, tasks=tasks))
    return task_sets


def filter_task_sets(task_sets, accents) -> list[AccentTaskSet]:
    wanted = set(accents)
    return [ts for ts in task_sets if ts.accent in wanted]


def sample_task_batch(task_sets, b: int, seed: int) -> list[MetaTask]:
    """b seeded draws, uniform over the task pool (hence proportional to tq),
    without replacement inside the batch."""
    pool = [t for ts in sorted(task_sets, key=lambda s: s.accent) for t in ts.tasks]
    if b < 1:
        raise TaskGenError(f"batch size must be >= 1, got {b}")
    if b > len(pool):
        raise TaskGenError(f"batch of {b} tasks requested but only {len(pool)} exist")
    rng = _child_rng(seed, "batch")
    idx = rng.choice(len(pool), size=b, replace=False)
    return [pool[i] for i in idx]


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass(frozen=True)
class SynthSpec:
    n_accents: int
    speakers_per_accent: int

    def __post_init__(self):
        dsp.require_int("n_accents", self.n_accents, 1, TaskGenError)
        dsp.require_int("speakers_per_accent", self.speakers_per_accent, 2, TaskGenError)


def _accent_family(k: int) -> dict:
    """Per-accent parameter family: pitch band, spectral decay, AM rate."""
    return {
        "f0_lo": 84.0 + 14.0 * k,
        "f0_hi": 94.0 + 14.0 * k,
        "decay": 0.6 + 0.25 * (k % 4),
        "am_rate": 2.0 + 0.7 * (k % 5),
    }


def _synth_utterance(rng: np.random.Generator, family: dict, n_samples: int) -> np.ndarray:
    rate = dsp.SAMPLE_RATE
    t = np.arange(n_samples) / rate
    f0 = rng.uniform(family["f0_lo"], family["f0_hi"])
    # slow pitch drift plus per-utterance jitter so no two segments repeat
    drift = 1.0 + 0.02 * np.sin(2 * np.pi * rng.uniform(0.05, 0.15) * t + rng.uniform(0, 2 * np.pi))
    jitter = rng.standard_normal(n_samples // 400 + 2)
    jitter = np.interp(np.arange(n_samples), np.arange(jitter.size) * 400, jitter)
    inst_f0 = f0 * drift * (1.0 + 0.004 * jitter)
    phase = 2 * np.pi * np.cumsum(inst_f0) / rate

    n_harmonics = max(3, int((rate / 2 - 200) // f0))
    n_harmonics = min(n_harmonics, 12)
    x = np.zeros(n_samples)
    decay = family["decay"] * rng.uniform(0.9, 1.1)
    for h in range(1, n_harmonics + 1):
        x += h ** (-decay) * np.sin(h * phase + rng.uniform(0, 2 * np.pi))

    am = 0.55 + 0.45 * np.sin(2 * np.pi * family["am_rate"] * rng.uniform(0.85, 1.15) * t
                              + rng.uniform(0, 2 * np.pi))
    slow = rng.uniform(0.5, 1.0, size=int(np.ceil(n_samples / rate)) + 2)
    slow = np.interp(np.arange(n_samples), np.arange(slow.size) * rate, slow)
    x *= am * slow
    return x * (SYNTH_PEAK / np.max(np.abs(x)))


def synth_corpus(spec: SynthSpec, seed: int, out_dir) -> Path:
    """Write a parametric harmonic corpus and its manifest; returns the
    manifest path. Same spec and seed always produce identical bytes."""
    out_dir = Path(out_dir)
    (out_dir / "audio").mkdir(parents=True, exist_ok=True)
    n_samples = int(SYNTH_UTTERANCE_SECONDS * dsp.SAMPLE_RATE)
    entries = []
    for k in range(spec.n_accents):
        accent = f"synth{k:02d}"
        family = _accent_family(k)
        for s in range(spec.speakers_per_accent):
            speaker = f"{accent}_spk{s:02d}"
            rng = _child_rng(seed, "speaker", accent, speaker)
            samples = _synth_utterance(rng, family, n_samples)
            rel = f"audio/{speaker}.wav"
            dsp.write_wav(out_dir / rel, Waveform(samples))
            entries.append({"accent": accent, "speaker_id": speaker,
                            "path": rel, "samples": n_samples})
    manifest = out_dir / "manifest.jsonl"
    write_manifest(manifest, entries)
    return manifest


# ---------------------------------------------------------------------------
# task archive: everything needed to rebuild mixtures bit-exactly


def write_task_archive(out_dir, task_sets, split: SplitSpec, seed: int) -> Path:
    out_dir = Path(out_dir)
    seg_dir = out_dir / "segments"
    seg_dir.mkdir(parents=True, exist_ok=True)
    seg_files: dict[tuple, str] = {}

    def store(accent, speaker, seg_idx, samples) -> str:
        key = (accent, speaker, int(seg_idx))
        if key not in seg_files:
            name = f"{len(seg_files):06d}.f64"
            dsp.write_raw(seg_dir / name, Waveform(samples))
            seg_files[key] = name
        return seg_files[key]

    accents = []
    for ts in sorted(task_sets, key=lambda s: s.accent):
        tasks = []
        for t in ts.tasks:
            refs_a = [store(t.accent, t.speakers[0], i, seg)
                      for i, seg in zip(t.seg_indices_a, t.segments_a)]
            refs_b = [store(t.accent, t.speakers[1], i, seg)
                      for i, seg in zip(t.seg_indices_b, t.segments_b)]
            tasks.append({
                "speakers": list(t.speakers),
                "seg_indices_a": list(t.seg_indices_a),
                "seg_indices_b": list(t.seg_indices_b),
                "seg_files_a": refs_a,
                "seg_files_b": refs_b,
                "snr_db": [[float(v) for v in row] for row in t.snr_grid],
                "support": t.support_index,
                "query": list(t.query_indices),
                "noise_seed": t.noise_seed,
            })
        accents.append({"accent": ts.accent, "tasks": tasks})
    index = {
        "format": "metasep-tasks-v1",
        "seed": seed,
        "split": {"train": split.train, "dev": split.dev, "test": split.test},
        "accents": accents,
    }
    path = out_dir / "tasks.json"
    with dsp.atomic_open(path) as f:
        f.write(json.dumps(index, indent=1, sort_keys=True))
    return path


TASK_KEYS = ("speakers", "seg_files_a", "seg_files_b", "seg_indices_a", "seg_indices_b",
             "snr_db", "support", "noise_seed", "query")


def load_task_archive(archive_dir) -> tuple[list[AccentTaskSet], SplitSpec, dict]:
    """The archive's task sets, split and seed. A tasks.json that is not the
    index `write_task_archive` writes is a TaskGenError naming the archive."""
    archive_dir = Path(archive_dir)
    cache: dict[str, np.ndarray] = {}

    def load_seg(name: str) -> np.ndarray:
        if name not in cache:  # shared by every task that uses the segment
            cache[name] = dsp.read_raw(archive_dir / "segments" / name).samples
            cache[name].flags.writeable = False
        return cache[name]

    try:
        index = json.loads((archive_dir / "tasks.json").read_text(encoding="utf-8"))
        if not isinstance(index, dict) or index.get("format") != "metasep-tasks-v1":
            raise ValueError("its tasks.json is not a metasep-tasks-v1 index")
        accents = [(acc["accent"], [{k: t[k] for k in TASK_KEYS} for t in acc["tasks"]])
                   for acc in index["accents"]]
        split, seed = SplitSpec(**index["split"]), index["seed"]
    except (ValueError, LookupError, TypeError, RecursionError) as err:
        reason = f"no key {err}" if isinstance(err, KeyError) else err
        raise TaskGenError(f"{archive_dir}: not a metasep task archive ({reason})") from None
    task_sets = []
    for accent, entries in accents:
        tasks = []
        for t in entries:
            task = MetaTask(
                accent=accent, speakers=tuple(t["speakers"]),
                segments_a=tuple(load_seg(n) for n in t["seg_files_a"]),
                segments_b=tuple(load_seg(n) for n in t["seg_files_b"]),
                seg_indices_a=tuple(t["seg_indices_a"]), seg_indices_b=tuple(t["seg_indices_b"]),
                snr_grid=np.array(t["snr_db"]), support_index=t["support"],
                noise_seed=t["noise_seed"])
            # the query set follows from the support index; an archive that
            # says otherwise was edited or written by something else
            if tuple(t["query"]) != task.query_indices:
                raise TaskGenError(f"{archive_dir}: not a metasep task archive (query indices "
                                   f"{t['query']} must be the segment-disjoint mixtures "
                                   f"{list(task.query_indices)} for support {task.support_index})")
            tasks.append(task)
        task_sets.append(AccentTaskSet(accent=accent, tasks=tasks))
    return task_sets, split, {"seed": seed}
