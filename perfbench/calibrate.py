"""Fixed reference kernel that measures how fast the host is running right now.

Usage: python3 calibrate.py

It does not import mobiusq, so changes to the program never move it.  Like a
CLI invocation, it pays interpreter start-up and the numpy import, then runs
numpy passes over a 2**15-amplitude complex vector and a pure-Python loop.
The benchmark runs it once per round, just before the invocation it
normalises: on a shared host the CPU speed drifts by tens of percent over
minutes, and the ratio of the two times cancels most of that drift.
"""
import numpy as np

amps = np.ones(1 << 15, dtype=np.complex128)
for _ in range(300):
    amps = (amps * 0.5 + 0.25j) / np.linalg.norm(amps)
total = 0
for i in range(300000):
    total += i * i
