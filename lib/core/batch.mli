(** The suite runners every driver shares: a warm-context batch under
    one heuristic, and the heuristic-comparison matrix as one task DAG. *)

(** The shared pool when [RA_JOBS] / the core count asks for
    parallelism; [None] on a sequential run. *)
val default_pool : unit -> Ra_support.Pool.t option

(** [allocate_all machine heuristic procs] allocates the procedures one
    after another with {!Allocator.allocate} over one warm context —
    [context] when given (its buffers and stats stay warm across the
    whole batch), else one fresh context made with [edge_cache]. It runs
    on the calling domain. Results in procedure order. *)
val allocate_all :
  ?context:Context.t ->
  ?edge_cache:bool ->
  ?verify:bool ->
  Machine.t ->
  Heuristic.t ->
  Ra_ir.Proc.t list ->
  Allocator.result list

(** [allocate_matrix machine heuristics procs] allocates every
    procedure under every heuristic — the full suite-comparison matrix —
    and returns one result list per heuristic, each in procedure order.
    The whole matrix is one work-stealing task DAG: per procedure, a
    shared first-pass Build fans out to one stage-task chain per
    heuristic, with dependency edges derived from declared footprints
    ({!Pipeline.submit_dag}). Each stage task is a stage of the one
    pass chain {!Pipeline.run} takes inline, so results are identical
    to one sequential {!allocate_all} per heuristic. The allocation
    options mirror {!Allocator.allocate}'s and apply to every cell. [scheduler]
    overrides the process-global scheduler — tests sweep widths with
    private instances. [tele] overrides the ambient telemetry sink, so
    harnesses can collect the run's counters without configuring
    [RA_TRACE]. *)
val allocate_matrix :
  ?coalesce:bool ->
  ?max_passes:int ->
  ?spill_base:float ->
  ?rematerialize:bool ->
  ?verify:bool ->
  ?edge_cache:bool ->
  ?scheduler:Ra_support.Scheduler.t ->
  ?tele:Ra_support.Telemetry.t ->
  Machine.t ->
  Heuristic.t list ->
  Ra_ir.Proc.t list ->
  Allocator.result list list
