(** Persistent per-procedure allocation context.

    The Figure-4 loop historically rebuilt the world on every spill pass:
    CFG, webs, liveness, both class interference graphs, all freshly
    allocated. A context makes the pipeline incremental instead:

    - it owns reusable buffers (two {!Igraph} scratch graphs, a
      {!Ra_support.Degree_buckets} buffer) that survive passes — and, in
      batch drivers, whole procedures;
    - after spill insertion it patches the previous pass's structures
      rather than recomputing them: {!Ra_ir.Cfg.patch_insertions} shifts
      block boundaries, {!Ra_analysis.Webs.rebuild} renumbers only the
      webs the spill touched, and {!Ra_analysis.Liveness.update} re-solves
      from a worklist seeded with the dirtied blocks.

    Spill passes after the first are where multi-pass procedures spend
    their build time, so this is the difference between O(passes × proc)
    and O(proc + passes × edit) analysis work.

    Exactness, not approximation: coloring outcomes are sensitive to node
    numbering and adjacency insertion order, so the incremental path is
    engineered to reproduce the from-scratch structures bit for bit
    (canonical web numbering, replayed graph construction into reset
    buffers). Under [RA_VERIFY=1] every incremental build is cross-checked
    against a fresh one and any difference raises {!Divergence}.

    The context also owns the {!Build.Edge_cache}: per-block staged edge
    pairs that let every build after a procedure's first round rescan
    only dirty blocks (coalescing rounds reuse clean blocks within a
    pass; spill passes carry the cache across via the same canonical
    renumbering and dirty-block report the liveness update uses). Only
    conservative (irc) and no-coalesce builds read it; aggressive builds
    build one graph per pass and leave it alone.

    [RA_INCREMENTAL=0] disables the incremental path entirely — every
    pass then rebuilds from scratch (still into the reused buffers);
    [RA_EDGE_CACHE=0] disables the edge cache alone, forcing a full
    block scan every round. *)

exception Divergence of string

type stats = {
  mutable incremental_builds : int; (* passes served by patching *)
  mutable scratch_builds : int; (* passes built from scratch *)
  mutable verified_builds : int; (* incremental builds cross-checked *)
}

type t

(** [create machine] makes an empty context. [incremental] defaults to
    the [RA_INCREMENTAL] environment variable (unset or any value but
    ["0"] means enabled); [verify] to [RA_VERIFY] (enabled when set
    non-empty and not ["0"]); [edge_cache] to [RA_EDGE_CACHE] (unset or
    any value but ["0"] means enabled).

    [tele] is the telemetry sink every pass built over this context
    reports into; it defaults to the process-wide
    {!Ra_support.Telemetry.ambient} sink (so [RA_TRACE] / [--trace]
    work without threading anything).

    [pool], when given, parallelizes the interference-graph block scan
    (see {!Build.build}); a width-1 pool means sequential. Without it,
    [jobs] decides: [1] forces sequential, [> 1] uses the shared
    {!Ra_support.Pool.global} pool. The default is [Pool.default_jobs ()]
    — i.e. [RA_JOBS] / the core count — so multi-core parallelism is on
    by default and [RA_JOBS=1] is the escape hatch. Either way the
    allocation results are engineered to be bit-identical to a
    sequential build (cross-checked under [RA_VERIFY]).

    [wide_pool] is a pool the context may {e borrow} for large
    Color-stage work without owning it for block scans: batch drivers
    that pin [jobs:1] per pipeline (procedure-level parallelism) pass
    the scheduler's pool here so big routines can still go wide inside
    Select (the engine's node-count floor keeps small routines off
    it). Ignored when its width is 1. *)
val create :
  ?incremental:bool ->
  ?verify:bool ->
  ?edge_cache:bool ->
  ?tele:Ra_support.Telemetry.t ->
  ?jobs:int ->
  ?pool:Ra_support.Pool.t ->
  ?wide_pool:Ra_support.Pool.t ->
  Machine.t ->
  t

val machine : t -> Machine.t

(** The sink this context's builds report into ({!create}'s [tele]). *)
val telemetry : t -> Ra_support.Telemetry.t

val incremental_enabled : t -> bool
val edge_cache_enabled : t -> bool

(** The pool builds run on, if any. *)
val pool : t -> Ra_support.Pool.t option

(** The borrowed Color-stage pool, if any (see {!create}). *)
val wide_pool : t -> Ra_support.Pool.t option

(** The cross-pass dominator/loop cache carried by this context. *)
val analysis_cache : t -> Ra_analysis.Analysis_cache.t

(** Effective build parallelism: the pool's width, or 1. *)
val jobs : t -> int

(** Reusable degree-bucket buffer for {!Heuristic.run}. *)
val buckets : t -> Ra_support.Degree_buckets.t

val stats : t -> stats

(** Forget the previous pass's structures. Call when starting a new
    procedure; the buffers stay warm. *)
val begin_proc : t -> unit

(** [adopt_prev t ~cfg ~built] records an externally built first pass
    (the DAG driver's shared build, fanned out to several heuristics) as
    this context's previous pass, so the next {!build_pass} with an
    [edit] patches it incrementally instead of rebuilding from scratch.
    A no-op when incrementality is off. *)
val adopt_prev : t -> cfg:Ra_ir.Cfg.t -> built:Build.t -> unit

(** [build_pass t proc ~is_spill_vreg ~mode ~edit] produces the CFG,
    webs and interference graphs for the current pass, coalescing (or
    staging move worklists) per [mode] — see {!Build.coalesce_mode}.
    [edit] is the {!Spill.result} of the previous pass's spill insertion
    ([None] on the first pass). With a previous pass on record and
    incrementality enabled, the structures are derived from it;
    otherwise they are built from scratch into the context's buffers.
    Raises {!Divergence} if verification is on and an incremental build
    differs from a fresh one. *)
val build_pass :
  t ->
  Ra_ir.Proc.t ->
  is_spill_vreg:(Ra_ir.Reg.t -> bool) ->
  mode:Build.coalesce_mode ->
  edit:Spill.result option ->
  Ra_ir.Cfg.t * Ra_analysis.Webs.t * Build.t
