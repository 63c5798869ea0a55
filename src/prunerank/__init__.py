"""Query-aware token pruning, single-pass listwise scoring, ranking losses,
a decoder FLOPs model, IR metrics, and a bound-verification harness."""

__version__ = "0.1.0"
