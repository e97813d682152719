"""Dual-map deep-RL navigation workbench.

A self-contained stack for training and evaluating Q-learning navigation
agents on procedurally generated outdoor worlds: an egocentric 10x10
decision map respawned at each target cell, a mission record of the route
flown and the obstacle cells sensed, a synthetic 84x84 forward camera with
weather degradation, a from-scratch double-input Q-network, and the DQN /
double-DQN / subtractive-bootstrap update rules with their two-phase
training protocol.
"""

__version__ = "0.1.0"
