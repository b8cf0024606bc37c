"""Seeded end-to-end and per-layer benchmark for repvar; see ``run.py``."""
