"""Names and units of the metrics the benchmark reports, and the suites the
``suites-cli`` workload runs (every suite but ``hopf-cochain``).

BENCHMARK.json at the repository root lists the same metrics.
"""

LIGHT_SUITES = (
    "hopf-axioms",
    "group-cohomology",
    "octonions",
    "pbw-gcl",
    "moyal",
    "graded-galois",
    "sharp-map",
    "heis-torus",
)

END_TO_END = (
    ("verdicts_per_s", "1/s"),
    ("case_p50_ms", "ms"),
    ("case_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("scalars.series_mul.calls", "count"),
    ("scalars.series_mul.s", "s"),
    ("scalars.series_add.calls", "count"),
    ("scalars.taulaurent_new.calls", "count"),
    ("scalars.cyclotomic_mul.calls", "count"),
    ("kernel.tensor_convolve.calls", "count"),
    ("kernel.tensor_convolve.s", "s"),
    ("kernel.tensor_convolve.pairs", "count"),
    ("kernel.tensor_convolve.out_terms", "count"),
    ("kernel.tensor_convolve.yield", "ratio"),
    ("kernel.torus_scan.calls", "count"),
    ("kernel.torus_scan.s", "s"),
    ("kernel.cyclo_mul.calls", "count"),
    ("multilinear.mul.calls", "count"),
    ("multilinear.mul.s", "s"),
    ("multilinear.mul.max_terms", "count"),
    ("multilinear.leg_embed.s", "s"),
    ("multilinear.coproduct_leg.s", "s"),
    ("multilinear.counit_leg.s", "s"),
    ("multilinear.tensor_invert.calls", "count"),
    ("multilinear.tensor_invert.s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.s", "s"),
    ("hopf_cochain.coboundary_pair.calls", "count"),
    ("hopf_cochain.coboundary_pair.s", "s"),
    ("hopf_cochain.twist.s", "s"),
    ("hopf_cochain.verify_quasi.s", "s"),
    ("hopf_cochain.dsquared.s", "s"),
) + tuple(("suites.%s.s" % name, "s") for name in LIGHT_SUITES) + (
    ("cli.import_s", "s"),
    ("reporting.to_json.s", "s"),
    ("heis_torus.star.calls", "count"),
    ("heis_torus.star.s", "s"),
    ("pbw.PBWTensor.mul.s", "s"),
    ("group_cohomology.is_cocycle.s", "s"),
    ("graded.strong_grading.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.absent_targets", "count"),
)
