"""Central catalog of every metric instrument name in the reproduction.

String-keyed metrics have one classic failure mode: a typo'd name silently
registers a *second* instrument, and the Lemma 1/2 scan-bound tests (or a
bench gate) read zeros from the name nobody increments.  This module is the
single source of truth: every counter/gauge/histogram name is a constant
here, call sites import the constant, and rule RPR002 in
:mod:`repro.analysis` statically rejects both

* a name literal passed to ``counter()/gauge()/histogram()/inc()/observe()``
  that this catalog does not define, and
* a catalog name re-typed as a raw string literal anywhere else (use the
  constant, so a rename is one edit plus the type checker's help).

The linter parses this file's AST rather than importing it, so the catalog
must stay what it is now: flat ``UPPER_CASE = "literal"`` assignments.
Dynamic families (the per-span histograms ``span.<name>.s`` emitted by
:mod:`repro.obs.trace`) are intentionally outside the catalog; they are
derived from span names, not free-typed.
"""

from __future__ import annotations

# --------------------------------------------------------------- storage I/O
# Folded in from IOStats; these back the Lemma 1/2 scan-accounting tests.
STORE_REGION_READS = "store.region_reads"
STORE_FULL_SCANS = "store.full_scans"
STORE_BYTES_READ = "store.bytes_read"

# ------------------------------------------------------------ on-disk store
# Counted by repro.storage.DiskStore: bounded-memory chunk reads (each chunk's
# bytes also land in store.bytes_read, keeping the Lemma accounting truthful)
# and column-file write traffic.
STORE_COLUMNAR_CHUNKS_READ = "store.columnar.chunks_read"
STORE_COLUMNAR_BYTES_WRITTEN = "store.columnar.bytes_written"
STORE_COLUMNAR_REGIONS_WRITTEN = "store.columnar.regions_written"

# ------------------------------------------------------------ linear algebra
ML_LINEAR_FITS = "ml.linear.fits"
ML_LINEAR_BATCHED_SOLVES = "ml.linear.batched_solves"
ML_LINEAR_BATCHED_PROBLEMS = "ml.linear.batched_problems"
# Batched problems re-solved one by one through the scalar solve -> pinv path
# (singular, or riding in a batch that stacked LAPACK refused whole).
ML_LINEAR_SCALAR_FALLBACKS = "ml.linear.scalar_fallbacks"

# ------------------------------------------------------- incremental layer
INCR_CACHE_HITS = "incr.cache_hits"
INCR_CACHE_MISSES = "incr.cache_misses"
INCR_CELLS_RESOLVED = "incr.cells_resolved"
INCR_REGIONS_REFRESHED = "incr.regions_refreshed"
INCR_FULL_REBUILDS = "incr.full_rebuilds"

# ------------------------------------------------------------------- search
SEARCH_REGIONS_EVALUATED = "search.regions_evaluated"

# --------------------------------------------------------------------- tree
TREE_SPLIT_EVALS = "tree.split_evals"
TREE_NODES_SPLIT = "tree.nodes_split"

# --------------------------------------------------------------------- cube
CUBE_SUBSETS_BUILT = "cube.subsets_built"

# ------------------------------------------------------- materialized tables
# Counted by repro.storage.cubetables / repro.incremental.tables: warm loads
# vs. stale misses vs. from-facts builds of the persisted per-level suffstats
# cube tables, plus their (derived-statistics, non-store) byte traffic.
CUBE_TABLES_BUILDS = "cube.tables.builds"
CUBE_TABLES_HITS = "cube.tables.hits"
CUBE_TABLES_MISSES = "cube.tables.misses"
CUBE_TABLES_BYTES_WRITTEN = "cube.tables.bytes_written"
CUBE_TABLES_BYTES_READ = "cube.tables.bytes_read"

# ------------------------------------------------------------- worker fan-out
# Counted by repro.exec.ParallelExecutor when work leaves the parent process:
# chunks dispatched, plus the trace/histogram payloads merged back so parallel
# runs stay observably identical to serial ones.
EXEC_WORKER_CHUNKS = "exec.worker.chunks"
EXEC_WORKER_SPANS_MERGED = "exec.worker.spans_merged"
EXEC_WORKER_HISTOGRAMS_MERGED = "exec.worker.histograms_merged"

# ------------------------------------------------------- resource profiling
# Gauges sampled per span by repro.obs.profile.ResourceProfiler.
OBS_RSS_PEAK_BYTES = "obs.rss_peak_bytes"
OBS_GC_COLLECTIONS = "obs.gc_collections"
OBS_READ_RATE_BPS = "obs.read_rate_bps"

# ------------------------------------------------------------- query service
# Counted by repro.serve: requests answered (and how many errored), warm
# profile hits vs. cold recomputes, store-version adoptions picked up from
# the changelog, and queries proven to have touched zero facts.  The
# registry itself is single-threaded by design, so the service updates these
# under its own instrument lock (see repro.serve.state).
SERVE_REQUESTS = "serve.requests"
SERVE_ERRORS = "serve.errors"
SERVE_CACHE_HITS = "serve.cache_hits"
SERVE_CACHE_MISSES = "serve.cache_misses"
SERVE_VERSION_ADOPTIONS = "serve.version_adoptions"
SERVE_ZERO_SCAN_QUERIES = "serve.zero_scan_queries"

# Per-endpoint latency histograms (seconds), observed by repro.serve.app.
SERVE_LATENCY_MODEL = "serve.latency.model.s"
SERVE_LATENCY_REGIONS = "serve.latency.regions.s"
SERVE_LATENCY_CUBE = "serve.latency.cube.s"
SERVE_LATENCY_BELLWETHER = "serve.latency.bellwether.s"
SERVE_LATENCY_PREDICT = "serve.latency.predict.s"
SERVE_LATENCY_AQP = "serve.latency.aqp.s"
SERVE_LATENCY_AQP_TRAIN = "serve.latency.aqp_train.s"
# What each of those latencies splits into, over all endpoints: request
# framing + body decode, the ServerState call, the one socket write.
SERVE_STAGE_PARSE = "serve.stage.parse.s"
SERVE_STAGE_ANSWER = "serve.stage.answer.s"
SERVE_STAGE_WRITE = "serve.stage.write.s"

# ------------------------------------------------- approximate answering (AQP)
# Counted by repro.aqp: queries asking mode=approx, how many were answered
# from the learned surface vs fell back to the exact cube-table path (and
# why — the engine annotates the reason on the response, the counter sums
# them), model (re)trains split out by drift-triggered ones, workload
# journal appends, and journal read/decode failures (after which serving
# degrades to exact-only until a successful retrain).
AQP_QUERIES = "aqp.queries"
AQP_APPROX_ANSWERS = "aqp.approx_answers"
AQP_FALLBACKS = "aqp.fallbacks"
AQP_TRAINS = "aqp.trains"
AQP_DRIFT_RETRAINS = "aqp.drift_retrains"
AQP_JOURNAL_RECORDS = "aqp.journal_records"
AQP_JOURNAL_ERRORS = "aqp.journal_errors"

# ------------------------------------------------- runtime lock checking
# Counted by repro.analysis.runtime when the opt-in lock checker is on
# (observe(lockcheck=True) / --lockcheck): tracked acquisitions, distinct
# acquisition-order edges observed, and discipline violations (order
# inversions, non-reentrant re-acquisition).  All zero when the checker
# is off.
ANALYSIS_LOCK_ACQUISITIONS = "analysis.lock.acquisitions"
ANALYSIS_LOCK_EDGES = "analysis.lock.edges"
ANALYSIS_LOCK_VIOLATIONS = "analysis.lock.violations"


#: Every registered counter name (all instruments above are counters today;
#: gauges/histograms added later join their own tuple and ALL_NAMES).
COUNTERS: tuple[str, ...] = (
    STORE_REGION_READS,
    STORE_FULL_SCANS,
    STORE_BYTES_READ,
    STORE_COLUMNAR_CHUNKS_READ,
    STORE_COLUMNAR_BYTES_WRITTEN,
    STORE_COLUMNAR_REGIONS_WRITTEN,
    ML_LINEAR_FITS,
    ML_LINEAR_BATCHED_SOLVES,
    ML_LINEAR_BATCHED_PROBLEMS,
    ML_LINEAR_SCALAR_FALLBACKS,
    INCR_CACHE_HITS,
    INCR_CACHE_MISSES,
    INCR_CELLS_RESOLVED,
    INCR_REGIONS_REFRESHED,
    INCR_FULL_REBUILDS,
    SEARCH_REGIONS_EVALUATED,
    TREE_SPLIT_EVALS,
    TREE_NODES_SPLIT,
    CUBE_SUBSETS_BUILT,
    CUBE_TABLES_BUILDS,
    CUBE_TABLES_HITS,
    CUBE_TABLES_MISSES,
    CUBE_TABLES_BYTES_WRITTEN,
    CUBE_TABLES_BYTES_READ,
    EXEC_WORKER_CHUNKS,
    EXEC_WORKER_SPANS_MERGED,
    EXEC_WORKER_HISTOGRAMS_MERGED,
    SERVE_REQUESTS,
    SERVE_ERRORS,
    SERVE_CACHE_HITS,
    SERVE_CACHE_MISSES,
    SERVE_VERSION_ADOPTIONS,
    SERVE_ZERO_SCAN_QUERIES,
    AQP_QUERIES,
    AQP_APPROX_ANSWERS,
    AQP_FALLBACKS,
    AQP_TRAINS,
    AQP_DRIFT_RETRAINS,
    AQP_JOURNAL_RECORDS,
    AQP_JOURNAL_ERRORS,
    ANALYSIS_LOCK_ACQUISITIONS,
    ANALYSIS_LOCK_EDGES,
    ANALYSIS_LOCK_VIOLATIONS,
)

GAUGES: tuple[str, ...] = (
    OBS_RSS_PEAK_BYTES,
    OBS_GC_COLLECTIONS,
    OBS_READ_RATE_BPS,
)
HISTOGRAMS: tuple[str, ...] = (
    SERVE_LATENCY_MODEL,
    SERVE_LATENCY_REGIONS,
    SERVE_LATENCY_CUBE,
    SERVE_LATENCY_BELLWETHER,
    SERVE_LATENCY_PREDICT,
    SERVE_LATENCY_AQP,
    SERVE_LATENCY_AQP_TRAIN,
    SERVE_STAGE_PARSE,
    SERVE_STAGE_ANSWER,
    SERVE_STAGE_WRITE,
)
