(** The one suite runner every driver shares: allocate a batch of
    procedures with warm contexts, optionally dispatching whole
    procedures across a pool.

    The policy, identical results either way:

    - an explicit [context] wins — the batch runs sequentially over it
      so its buffers (and stats) stay warm across every routine; the
      context's own pool still parallelizes each graph build;
    - otherwise, with a pool of width > 1, each procedure is one pool
      task with a private context (contexts are single-threaded) and
      the result list keeps procedure order;
    - otherwise one fresh warm context serves the whole batch. *)

(** The shared pool when [RA_JOBS] / the core count asks for
    parallelism; [None] on a sequential run. *)
val default_pool : unit -> Ra_support.Pool.t option

(** [map_procs machine ~f procs] runs [f context proc] for every
    procedure under the policy above. [pool] defaults to
    {!default_pool}; [edge_cache] is passed to created contexts
    (ignored when [context] is given). *)
val map_procs :
  ?pool:Ra_support.Pool.t option ->
  ?context:Context.t ->
  ?edge_cache:bool ->
  Machine.t ->
  f:(Context.t -> Ra_ir.Proc.t -> 'a) ->
  Ra_ir.Proc.t list ->
  'a list

(** [allocate_all machine heuristic procs]: {!map_procs} specialized to
    {!Allocator.allocate}, results in procedure order. *)
val allocate_all :
  ?pool:Ra_support.Pool.t option ->
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
    ({!Pipeline.submit_dag}). Results are bit-identical to one
    sequential {!allocate_all} per heuristic. The allocation options
    mirror {!Allocator.allocate}'s and apply to every cell. [scheduler]
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
