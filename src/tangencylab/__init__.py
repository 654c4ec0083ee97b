"""tangencylab: a numerical laboratory for cubic tangency dynamics.

Submodules
----------
maps1d     one-dimensional maps: the slope-3 N-shaped map, cubic family,
           their sine conjugacy, a binary64 periodic-orbit solver
cantor     exact Cantor-set stages, gap/bridge thickness, Gap-Lemma
           trichotomy, Markov branch systems
renorm     the renormalization cascade around a folding saddle model and
           its decay-rate measurements
planar     planar engine: orbits, saddles, Lyapunov exponents, invariant
           manifolds, tangency detection and classification
fold       tangencies as folds of the unstable curve: the batched fold
           kernel and lockstep fold roots
wangyoung  certificates for the cubic family on its trapping interval and
           the thickened two-parameter wrappers
verify     the consolidated eight-criterion verification suite
cli        experiment orchestration (`tangencylab` command)

`import tangencylab` loads none of them; import each by name
(`from tangencylab import planar`).
"""

__version__ = "0.1.0"
