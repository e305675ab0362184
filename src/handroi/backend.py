"""Geometry runs on numpy alone; the flag is kept for benchmark provenance."""
USE_NUMBA = False
