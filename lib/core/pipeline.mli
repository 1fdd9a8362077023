(** The Figure-4 driver as an explicit typed pass pipeline:

    {v
    lint → [ build → color-int → color-flt → spill-elect → spill-insert ]*
         → rewrite → verify
    v}

    Each bracketed pass repeats until both class graphs color. The chain
    is written once and run two ways: {!run} takes each arrow inline,
    {!submit_dag} submits each as a scheduler task — so both drivers
    run the same stages in the same order. Every stage reports into the
    shared {!Ra_support.Telemetry} tree under its {!Ra_support.Phase.t}
    — one instrumentation point per stage feeds the paper's CPU accounting
    (the per-pass {!pass_record} times), the structured trace, and the
    [RA_DEBUG] dump (a telemetry subscriber).

    {!Allocator.allocate} is a thin wrapper over {!run}; the pipeline is
    exposed separately so drivers and tests can reach the stages and the
    typed pass results without the option-heavy convenience layer. *)

type pass_record = {
  pass_index : int; (* 1-based *)
  webs_initial : int; (* webs found by renumbering, before coalescing *)
  webs_coalesced : int;
    (* moves coalesced away this pass. Classic heuristics: aggressively
       during Build. Irc: the Briggs-gated merges of the conservative
       Build fixpoint PLUS the worklist drive's conservative merges —
       an irc pass can contribute both kinds (telemetry splits them:
       [coalesce.*] from Build, [irc.*] from the engine) *)
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
  coalesce_time : float;
    (* irc's worklist drive (simplify interleaved with conservative
       coalescing); 0 elsewhere — the aggressive pre-pass's merge scans
       are part of Build's accounting, matching the paper's *)
  simplify_time : float;
  color_time : float;
  spill_time : float;
}

type outcome = {
  proc : Ra_ir.Proc.t; (* rewritten onto physical registers *)
  passes : pass_record list; (* first pass first *)
  live_ranges : int; (* webs on the first pass (paper's Live Ranges) *)
  total_spilled : int;
  total_spill_cost : float;
  moves_removed : int; (* copies deleted by coalescing/same-color *)
}

exception Allocation_failure of string

type config = {
  coalesce : bool;
  max_passes : int;
  spill_base : float;
  rematerialize : bool;
  verify : bool;
}

(** The pass chain in execution order, with one-line descriptions —
    the structure {!run} executes, for docs and tooling. *)
val stages : (Ra_support.Phase.t * string) list

(** Expand a spill decision (node ids of one class graph) into groups of
    member web ids sharing a slot. Deterministic by construction: groups
    are ordered by ascending representative web id, never by
    hash-bucket layout. Exposed for the determinism regression test. *)
val spill_groups : Build.t -> Ra_ir.Reg.cls -> int list -> int list list

(** Run the pipeline on a *copy* of the procedure (the input is
    untouched) over the given context's buffers, reporting into the
    context's telemetry sink. Raises {!Allocation_failure} as
    documented on {!Allocator.allocate}.

    For {!Heuristic.Irc} with [config.coalesce] on, an allocation whose
    pass 1 spilled is re-run with coalescing off (counted as
    [irc.fallback_runs] on the telemetry sink), and the no-coalesce
    outcome is kept when it spilled strictly fewer webs
    ([irc.fallback_kept]) — conservative coalescing never costs spills,
    whole-allocation, not merely per pass. Here the rerun runs after the
    coalesced chain, on the same context, and stops at the first
    election where its running spill total reaches the coalesced
    total: from there it cannot win. Its abandoned pass is not counted
    in [alloc.passes]. *)
val run :
  config -> context:Context.t -> Machine.t -> Heuristic.t -> Ra_ir.Proc.t ->
  outcome

(** The DAG decomposition, the driver behind {!Batch.allocate_matrix}:
    submit, into the open {!Ra_support.Scheduler.run} scope of [sched],
    one shared first-pass Build task for the procedure, then, per
    [pipelines] entry (a heuristic with its own single-threaded
    context), the pass chain entered at color with every stage a task,
    all dependency-ordered through declared
    {!Ra_support.Footprint.State} tokens. Irc pipelines build privately
    instead: their conservative coalescing writes the build's alias
    forest. Returns one result slot per pipeline, filled by its last
    stage — read them only after the scheduler scope has drained.
    Outcomes are bit-identical to {!run} on the same inputs.

    Irc's no-coalesce fallback (see {!run}) is a task of its own,
    submitted as soon as pass 1 of the coalesced chain spills, over a
    {!Context.sibling} of the pipeline's context, so it runs beside the
    chain rather than after it. Whichever of the two finishes second
    applies {!run}'s rule and fills the slot. The rerun's cutoff takes
    effect once the chain has finished, so how many of its passes run
    depends on timing; the outcome does not.

    [tele] is the shared build task's sink; each pipeline reports into
    its context's sink as usual. First-pass builds take no edge cache: a cache pays only across the
    spill passes of one context, whose later passes read the pipeline
    context's own. *)
val submit_dag :
  Ra_support.Scheduler.t ->
  config ->
  Machine.t ->
  tele:Ra_support.Telemetry.t ->
  pipelines:(Heuristic.t * Context.t) list ->
  Ra_ir.Proc.t ->
  outcome option ref list
