"""Side-information-aided MMV-AMP for grant-free activity detection.

Joint device-activity detection and channel estimation across coherence
blocks with Markov-correlated activity: scenario generation, the SI-aided
iterative estimator, its state evolution, likelihood-ratio detection, and
a Monte Carlo experiment harness.
"""

__version__ = "0.1.0"
