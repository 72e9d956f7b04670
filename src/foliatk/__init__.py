"""Exact differential-form calculus for foliations of projective space.

Submodules: ``errors`` (exceptions), ``linalg`` (exact integer linear
algebra), ``polynomials`` (sparse exact arithmetic), ``forms`` (exterior
algebra and vector fields), ``foliation`` (projective presentations, Kupka
classification, blow-up), ``resonance`` (eigenvalue partitions and normal
forms), ``residue`` (exact and numeric residues, component degrees),
``distribution`` (class of non-integrable 1-forms), ``parser`` and ``cli``.
"""

__version__ = "0.1.0"
