"""Silver salience labels from summary-to-full-text alignment.

Each summary sentence is matched against full-text sentences at a
similar relative position; near-best matches above a similarity floor
become salient labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GoldLabels, ValidationError
from .suspense import _unit_rows


@dataclass(frozen=True)
class AlignConfig:
    window_fraction: float = 0.10  # rho
    min_sim: float = 0.35          # mu
    slack: float = 0.05            # theta
    max_matches: int = 3           # k

    def __post_init__(self):
        if not (0.0 < self.window_fraction <= 1.0):
            raise ValidationError("window_fraction must lie in (0, 1]")
        if not (0.0 <= self.min_sim <= 1.0):
            raise ValidationError("min_sim must lie in [0, 1]")
        if not self.slack >= 0.0:  # NaN, too
            raise ValidationError("slack must be >= 0")
        if self.max_matches < 1:
            raise ValidationError("max_matches must be >= 1")


@dataclass(frozen=True)
class AlignmentResult:
    labels: GoldLabels
    per_summary: tuple[tuple[int, ...], ...]
    empty_windows: int


def align(summary_emb, fulltext_emb, cfg: AlignConfig = AlignConfig()) -> AlignmentResult:
    """Label full-text sentences that nearly-best match some summary
    sentence within its relative-position window."""
    if len(summary_emb) == 0 or len(fulltext_emb) == 0:
        raise ValidationError("alignment needs non-empty summary and full text")
    summary = _unit_rows(summary_emb, "summary embeddings contains a zero vector")
    fulltext = _unit_rows(fulltext_emb, "full-text embeddings contains a zero vector")
    n_s, n_f = summary.shape[0], fulltext.shape[0]
    sims = summary @ fulltext.T

    positions = np.arange(n_f) / n_f  # each the IEEE quotient y / n_f

    per_summary: list[tuple[int, ...]] = []
    labeled: set[int] = set()
    empty_windows = 0
    for x in range(n_s):
        window = np.flatnonzero(np.abs(positions - x / n_s) <= cfg.window_fraction)
        if window.size == 0:
            empty_windows += 1
            per_summary.append(())
            continue
        window_sims = sims[x, window]
        best = float(window_sims.max())
        keep = (window_sims >= cfg.min_sim) & (window_sims >= best - cfg.slack)
        candidates, candidate_sims = window[keep], window_sims[keep]
        # by similarity, descending; a stable sort keeps ties in position order
        order = np.argsort(-candidate_sims, kind="stable")
        chosen = tuple(candidates[order[:cfg.max_matches]].tolist())
        per_summary.append(chosen)
        labeled.update(chosen)
    labels = GoldLabels(kind="salience", salient_indices=frozenset(labeled))
    return AlignmentResult(labels=labels, per_summary=tuple(per_summary),
                           empty_windows=empty_windows)


def alignment_report(labels: GoldLabels, fulltext_length: int) -> dict:
    """Label count and coverage fraction for one chapter."""
    if labels.kind != "salience":
        raise ValidationError("alignment report needs salience labels")
    if fulltext_length < 1:
        raise ValidationError("full-text length must be >= 1")
    count = len(labels.salient_indices)
    return {"label_count": count,
            "fulltext_sentences": fulltext_length,
            "coverage": count / fulltext_length}
