"""Staged pseudo-inverse decoding with thresholded gradient updates for NMF.

The package re-exports nothing: import each name from its module
(`andnmf.solver`, `andnmf.synth`, ...). So `import andnmf` loads no numpy,
and the CLI sets OpenBLAS's environment before numpy loads (see `cli`).
"""

__version__ = "0.1.0"
