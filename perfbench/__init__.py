"""Layered CDC benchmark for etl_ray (entry point: ``perfbench/run.py``)."""
