"""Deepfake speech detection from breathing patterns.

A two-stage pipeline: a framewise neural detector finds breath events
in speech audio, and simple classifiers over per-sample breath
statistics (rate, duration, spacing) decide whether the sample is real
or machine-generated.
"""

__version__ = "0.1.0"
