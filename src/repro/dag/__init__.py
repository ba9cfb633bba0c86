"""Structural analyses, critical-path anatomy and exports of compiled programs."""

from repro.dag.critical_path import critical_path_tasks

__all__ = ["critical_path_tasks"]
