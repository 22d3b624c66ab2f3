"""Finite-volume toolkit for two viscous proliferating tissues in contact."""

__version__ = "0.1.0"
