"""LayerBench: the end-to-end + per-layer benchmark (see README.md)."""
