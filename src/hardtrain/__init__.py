"""Matrix-free training of differentiable models under hard output constraints.

Modules by layer: ``linops`` (vectors, implicit operators), ``krylov``
(MINRES-QLP, optionally preconditioned), ``autodiff`` (linearize -> value,
jvp, vjp and, where supplied, the Gram product over flat parameters;
residual objectives), ``kkt`` (saddle-point systems and steps, with the
Schur-complement preconditioner), ``constraints`` (constraint pools, each
giving its violation matrix and active rows; active-set selection),
``trainers`` (soft and hard outer loops), ``benchmarks`` (synthetic
problems and metrics), ``cli`` (experiment runner).
"""

__version__ = "0.1.0"
