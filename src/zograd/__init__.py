"""Biased noisy gradient oracles for convex optimization.

Gradient estimators with an explicit bias/variance tolerance knob, mirror
descent driven by closed-form schedules, and the constructive hard
instances that pin the matching error floors.

Each name is imported from the submodule that defines it (``zograd.core``,
``zograd.testbed``, ``zograd.estimators``, ``zograd.adversarial``,
``zograd.solver``, ``zograd.harness.*``): importing the package imports none
of them, so each command compiles only the modules it runs.
"""

__version__ = "0.1.0"
