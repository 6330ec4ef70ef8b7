"""User-evidence cascade classification pipeline."""

__version__ = "0.1.0"
