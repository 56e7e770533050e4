"""Analysis utilities: overlap math and paper-style reports."""

from repro.analysis.overlap import OverlapAnalysis, analyze_overlap
from repro.analysis.reporting import ReportTable

__all__ = [
    "OverlapAnalysis",
    "analyze_overlap",
    "ReportTable",
]
