(** The Figure-4 driver: Build → (Simplify → Select →) Spill, repeated
    until both register classes color, then rewrite the procedure onto
    physical registers.

    This is the convenience face of {!Pipeline}: it resolves defaults
    (environment flags, a private {!Context} when none is given) and
    re-exports the pipeline's typed results under their historical
    names — [pass_record] and {!Allocation_failure} are equal to the
    pipeline's, so the two APIs interoperate freely.

    Each pass is timed per phase (build / simplify / color / spill) with
    the counts the paper reports: live ranges, edges, registers spilled and
    their precomputed spill cost. *)

type pass_record = Pipeline.pass_record = {
  pass_index : int; (* 1-based *)
  webs_initial : int; (* webs found by renumbering, before coalescing *)
  webs_coalesced : int; (* moves coalesced away during Build *)
  nodes_int : int; (* non-precolored nodes in each class graph *)
  nodes_flt : int;
  edges_int : int;
  edges_flt : int;
  spilled : int; (* live ranges spilled on this pass *)
  spill_cost : float; (* their total estimated spill cost *)
  build_rounds : int;
    (* coalescing rounds: 1 + the rounds that merged something. Not graph
       builds — an aggressive pass answers its merging rounds with an
       interference query and builds one graph; irc builds one per round *)
  cache_hits : int;
    (* blocks the edge cache replayed, summed over the pass's graph
       builds; 0 without a cache and for aggressive builds, which do not
       use it *)
  cache_misses : int; (* blocks rescanned into the edge cache, likewise *)
  build_time : float; (* seconds *)
  coalesce_time : float; (* irc worklist drive; 0 for the other heuristics *)
  simplify_time : float;
  color_time : float;
  spill_time : float;
}

type result = {
  proc : Ra_ir.Proc.t; (* rewritten onto physical registers *)
  heuristic : Heuristic.t;
  machine : Machine.t;
  passes : pass_record list; (* first pass first *)
  live_ranges : int; (* webs on the first pass (paper's Live Ranges) *)
  total_spilled : int;
  total_spill_cost : float;
  moves_removed : int; (* copies deleted by coalescing/same-color *)
}

(** The same exception as {!Pipeline.Allocation_failure} (a rebinding,
    so handlers for either name catch both). *)
exception Allocation_failure of string

(** Debugging aid: when the environment variable [RA_DEBUG] is set, every
    spilling pass prints its web/spill counts and the spilled webs' sites
    to stderr (a {!Ra_support.Telemetry} subscriber on the ambient sink);
    [RA_TRACE=<path>] records a structured trace of the same run. *)

(** [allocate machine heuristic proc] register-allocates a *copy* of
    [proc] (the input is untouched, so the same IR can be allocated with
    several heuristics). [coalesce:false] disables copy coalescing (an
    ablation); [spill_base] is the per-loop-depth spill-cost weight
    (default 10, Chaitin's customary constant — another ablation axis).
    For {!Heuristic.Irc} with coalescing on, the conservative guarantee
    holds unconditionally: an allocation that spilled — whether or not
    anything merged — is re-run with coalescing off and the coalesced
    outcome is kept only if it spilled no more webs, so
    [~coalesce:true] never spills more than [~coalesce:false] on the
    same input (ties keep the coalesced outcome; spill-free allocations
    never pay for the rerun). The rerun follows the coalesced
    allocation and stops as soon as its spill total reaches the
    coalesced one, since it can no longer win ({!Pipeline.run}).
    Raises {!Allocation_failure} if the Build–Color cycle fails to
    converge within [max_passes] (default 32).

    [verify] turns on the translation-validation layer ({!Ra_check}):
    the input is linted, the chosen coloring is checked against an
    independent liveness recomputation before the rewrite, and the
    output is linted and verified ({!Ra_check.Verify_alloc.run}). Any
    error-severity diagnostic raises {!Allocation_failure} carrying the
    full report. Defaults to {!Context.verify_default} (the [RA_VERIFY]
    environment variable).

    [context], when given, supplies the {!Context} whose buffers and
    incremental structures the passes run on — batch drivers pass one
    context across many procedures so the buffers stay warm. Without it
    a private context is created (incrementality still governed by
    [RA_INCREMENTAL]; the context inherits [verify], so an incremental
    build that diverges from a from-scratch one also fails). Results
    are identical either way, and identical with incrementality on or
    off. *)
val allocate :
  ?coalesce:bool ->
  ?max_passes:int ->
  ?spill_base:float ->
  ?rematerialize:bool ->
  ?verify:bool ->
  ?context:Context.t ->
  Machine.t ->
  Heuristic.t ->
  Ra_ir.Proc.t ->
  result

(** Total spilled / spill cost for quick comparisons. *)
val summary : result -> int * float
