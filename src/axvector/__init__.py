"""Adaptive x-vector speaker verification toolkit.

Submodules are imported explicitly (``from axvector import model``) rather
than re-exported here, so that each command line stage loads only the
numerical modules it uses: importing ``axvector.backend`` alone costs
several milliseconds after numpy, which every train stage would otherwise
pay before its first step.
"""

__version__ = "0.1.0"
