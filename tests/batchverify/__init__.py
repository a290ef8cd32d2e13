"""Tests for the corresponding repro subpackage."""
