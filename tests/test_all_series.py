"""Every per-sentence curve, frozen and checked for the missing-input rule.

The demo goldens cover only the default metrics and measures under the
default distance. Here every suspense metric under every distance, and
every salience measure with importance adjustment and the Clus
combination off and on, is computed on the three demo traces and compared
byte for byte with `goldens/all_series_<story>.csv`.
"""

import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from storymetrics import baseline, cli, salience, suspense
from storymetrics.model import SentenceRecord, StoryTrace, ValidationError

GOLDEN_DIR = Path(__file__).parent / "goldens"
SEED = 7  # the demo's default seed
STORIES = ("pivot", "wp_001", "wp_002")
# Measures scored from the whole trace: defined for any embeddings.
WHOLE_TRACE_MEASURES = ("clus", "random", "ascending", "descending")


@functools.lru_cache(maxsize=None)
def demo_traces() -> dict[str, StoryTrace]:
    """The traces `storymetrics demo --seed 7` builds."""
    embedder = baseline.HashEmbedder(dim=16, seed=SEED)
    return {sid: baseline.build_trace(sentences, embedder, window_tokens=32,
                                      seed=SEED, story_id=sid)
            for sid, sentences in cli.demo_sentences(SEED).items()}


def all_series(trace: StoryTrace) -> dict[str, np.ndarray]:
    cols = {}
    for name, kind in itertools.product(suspense.METRIC_NAMES, suspense.DistanceKind):
        cfg = suspense.MetricConfig(distance=kind)
        cols[f"{name}@{kind.value}"] = suspense.metric_series(trace, name, cfg).values
    for measure, imp, combine in itertools.product(salience.MEASURES, (False, True),
                                                   (False, True)):
        cfg = salience.SalienceConfig(measure=measure, imp_adjust=imp,
                                      combine_like_clus=combine, rng_seed=SEED)
        cols[f"{measure}@imp={int(imp)}@combine={int(combine)}"] = \
            salience.salience_series(trace, cfg).values
    return cols


def write_goldens(out_dir) -> None:
    """Regenerate the golden files (only when the curves change on purpose)."""
    for sid in STORIES:
        cli._write_series_csv(Path(out_dir) / f"all_series_{sid}.csv",
                              all_series(demo_traces()[sid]))


@pytest.mark.parametrize("story", STORIES)
def test_every_series_matches_golden(tmp_path, story):
    path = tmp_path / f"all_series_{story}.csv"
    cli._write_series_csv(path, all_series(demo_traces()[story]))
    assert path.read_bytes() == (GOLDEN_DIR / path.name).read_bytes()


def _bare_trace() -> StoryTrace:
    """One sentence with an embedding and nothing else: no previous
    sentence, continuations, windows, text, sentiment or likelihood."""
    rec = SentenceRecord(index=0, embedding=np.array([1.0, 0.5]))
    return StoryTrace(story_id="bare", sentences=(rec,), embedding_dim=2)


@pytest.mark.parametrize("name", suspense.METRIC_NAMES)
def test_metric_without_inputs_raises(name):
    with pytest.raises(ValidationError, match=name):
        suspense.metric_series(_bare_trace(), name, suspense.MetricConfig())


@pytest.mark.parametrize("measure", [m for m in salience.MEASURES
                                     if m not in WHOLE_TRACE_MEASURES])
def test_per_sentence_measure_without_inputs_raises(measure):
    with pytest.raises(ValidationError, match=measure):
        salience.salience_series(_bare_trace(), salience.SalienceConfig(measure=measure))


@pytest.mark.parametrize("measure", WHOLE_TRACE_MEASURES)
def test_whole_trace_measure_scores_bare_trace(measure):
    series = salience.salience_series(_bare_trace(), salience.SalienceConfig(measure=measure))
    assert len(series) == 1
