"""Per-sentence suspense, surprise, and salience curves for stories,
computed from serialized language-model traces, with evaluation against
human annotations, turning points, and summary-aligned silver labels."""

__all__ = [
    "AnnotationSet", "ContinuationSample", "ContinuationSet",
    "DegenerateStatisticsError", "GoldLabels", "Judgment", "MetricSeries",
    "ParseError", "SentenceRecord", "StoryTrace", "ValidationError",
    "read_annotations", "read_gold", "read_trace",
    "write_annotations", "write_gold", "write_trace",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # The public names load `model`, and with it numpy, on first use, so
    # that `storymetrics.cli` can configure numpy before it is imported.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import model
    return getattr(model, name)
