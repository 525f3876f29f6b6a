"""Experiment drivers: statistical probes, rate fitting, floor checks, CLI."""
