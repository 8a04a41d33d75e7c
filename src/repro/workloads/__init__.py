"""Synthetic multiprogrammed workloads standing in for SPEC92 + TeX.

The paper runs Alpha binaries of five SPEC92 floating-point programs
(alvinn, doduc, fpppp, ora, tomcatv), two integer programs (espresso,
xlisp), and TeX.  We cannot run Alpha binaries, so each benchmark is
replaced by a synthetic program *generator* whose knobs (instruction mix,
basic-block size, branch predictability, working-set size and access
pattern, recursion depth, indirect-jump behaviour, text footprint) are
calibrated to the published character of the original program.  What the
timing model cares about — ILP, queue occupancy, miss rates, misprediction
rates — is carried by those knobs, not by program semantics.
"""
