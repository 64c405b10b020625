"""Readable reference models the simulator's hot paths are checked against."""
